package core

import (
	"testing"

	"repro/internal/autonomic"
	"repro/internal/mapreduce"
	"repro/internal/migration"
	"repro/internal/nimbus"
	"repro/internal/sim"
	"repro/internal/vine"
	"repro/internal/vm"
)

const MB = 1 << 20

func cloudCfg(name string, hosts int, price float64) nimbus.Config {
	return nimbus.Config{
		Name:             name,
		Hosts:            hosts,
		HostSpec:         nimbus.HostSpec{Cores: 8, MemPages: 64 * 16384, Speed: 1.0},
		NICBW:            125 * MB,
		WANUp:            125 * MB,
		WANDown:          125 * MB,
		PricePerCoreHour: price,
	}
}

// fed builds a two-cloud federation with the debian image on both sides.
func fed(t testing.TB) *Federation {
	f := NewFederation(1)
	g5k := f.AddCloud(cloudCfg("g5k", 8, 0.08))
	fg := f.AddCloud(cloudCfg("futuregrid", 8, 0.12))
	f.SetWANLatency("g5k", "futuregrid", 60*sim.Millisecond)
	m := vm.NewContentModel(11, "debian", 0.1, 0.5, 2048)
	img := vm.NewDiskImage("debian", 1024, 65536, m)
	g5k.PutImage(img)
	m2 := vm.NewContentModel(12, "debian", 0.1, 0.5, 2048)
	fg.PutImage(vm.NewDiskImage("debian", 1024, 65536, m2))
	return f
}

func makeCluster(t *testing.T, f *Federation, dist map[string]int) *VirtualCluster {
	t.Helper()
	var vc *VirtualCluster
	var err error
	f.CreateCluster("vc", ClusterSpec{
		Image: "debian", Cores: 2, MemPages: 8192, CoW: true,
		Distribution: dist,
	}, func(c *VirtualCluster, e error) { vc, err = c, e })
	f.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

func TestCreateClusterSpansClouds(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 4, "futuregrid": 4})
	if vc.Size() != 8 {
		t.Fatalf("cluster size %d", vc.Size())
	}
	if len(vc.VMsAt("g5k")) != 4 || len(vc.VMsAt("futuregrid")) != 4 {
		t.Fatalf("spread wrong: %v / %v", vc.VMsAt("g5k"), vc.VMsAt("futuregrid"))
	}
	for _, v := range vc.VMs() {
		if v.VirtualIP == "" {
			t.Fatalf("VM %s has no overlay address", v.Name)
		}
		if f.Overlay.Lookup(v.VirtualIP) == nil {
			t.Fatalf("VM %s not in overlay", v.Name)
		}
	}
}

func TestCreateClusterErrors(t *testing.T) {
	f := fed(t)
	var err error
	f.CreateCluster("x", ClusterSpec{Image: "debian", Distribution: map[string]int{"nope": 2}},
		func(_ *VirtualCluster, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("unknown cloud must fail")
	}
	f.CreateCluster("y", ClusterSpec{Image: "debian"}, func(_ *VirtualCluster, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("empty distribution must fail")
	}
}

// TestCreateClusterSingleCompletion: multiple members failing through the
// scheduled path (two unknown clouds) must report exactly one completion —
// each failure schedules complete(), and all of them fire after pending
// reaches zero.
func TestCreateClusterSingleCompletion(t *testing.T) {
	f := fed(t)
	calls := 0
	f.CreateCluster("x", ClusterSpec{Image: "debian",
		Distribution: map[string]int{"ghost1": 1, "ghost2": 1}},
		func(_ *VirtualCluster, e error) {
			calls++
			if e == nil {
				t.Error("unknown clouds must fail")
			}
		})
	f.K.Run()
	if calls != 1 {
		t.Fatalf("onDone called %d times, want exactly 1", calls)
	}
}

func TestCrossCloudMapReduce(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 3, "futuregrid": 3})
	var res mapreduce.Result
	if err := vc.RunJob(mapreduce.BlastJob(24), func(r mapreduce.Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	f.K.Run()
	if res.Makespan == 0 {
		t.Fatal("cross-cloud job never finished")
	}
	if res.MapsExecuted != 24 {
		t.Fatalf("maps %d", res.MapsExecuted)
	}
}

func TestGrowShrink(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 2})
	var gerr error
	vc.Grow("futuregrid", 3, func(e error) { gerr = e })
	f.K.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if vc.Size() != 5 {
		t.Fatalf("size after grow %d", vc.Size())
	}
	if n := vc.Shrink("futuregrid", 2); n != 2 {
		t.Fatalf("shrunk %d", n)
	}
	if vc.Size() != 3 {
		t.Fatalf("size after shrink %d", vc.Size())
	}
	// Shrunk VMs are terminated and out of the overlay.
	if got := len(vc.VMsAt("futuregrid")); got != 1 {
		t.Fatalf("futuregrid VMs left %d", got)
	}
}

func TestMigrateVMCloudAPI(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 2})
	name := vc.VMsAt("g5k")[0]
	var res migration.Result
	var err error
	f.MigrateVM(name, "futuregrid", DefaultMigrate(), func(r migration.Result, e error) { res, err = r, e })
	f.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.CloudOf(name).Name != "futuregrid" {
		t.Fatalf("VM still at %s", f.CloudOf(name).Name)
	}
	if res.Method != "shrinker" {
		t.Fatalf("federation default should use Shrinker, got %s", res.Method)
	}
	if res.BlocksSent == 0 && res.BlocksDeduped == 0 {
		t.Fatal("disk was not migrated")
	}
	v := f.VM(name)
	if v.State != vm.StateRunning {
		t.Fatalf("state %v", v.State)
	}
	// Overlay must have been reconfigured: route fresh everywhere.
	if f.Overlay.RouteStale("g5k", v.VirtualIP) {
		t.Fatal("overlay stale after cloud-API migration")
	}
	if f.Migrations != 1 || f.MigrationBytes == 0 {
		t.Fatalf("stats migrations=%d bytes=%d", f.Migrations, f.MigrationBytes)
	}
}

func TestMigrateVMDedupUsesDestinationRegistry(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 2})
	names := vc.VMsAt("g5k")
	var r1, r2 migration.Result
	f.MigrateVM(names[0], "futuregrid", DefaultMigrate(), func(r migration.Result, e error) {
		r1 = r
		f.MigrateVM(names[1], "futuregrid", DefaultMigrate(), func(r migration.Result, e error) { r2 = r })
	})
	f.K.Run()
	if r2.WireBytes >= r1.WireBytes {
		t.Fatalf("second migration (%d) not cheaper than first (%d): registry not shared",
			r2.WireBytes, r1.WireBytes)
	}
	// Both should already benefit from the destination's seeded image blocks.
	if r1.BlocksDeduped == 0 {
		t.Fatal("disk blocks found no duplicates despite identical base image at destination")
	}
}

func TestMigrateVMErrors(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 1})
	name := vc.VMsAt("g5k")[0]
	var err error
	f.MigrateVM("ghost", "futuregrid", DefaultMigrate(), func(_ migration.Result, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("unknown VM must fail")
	}
	f.MigrateVM(name, "ghost-cloud", DefaultMigrate(), func(_ migration.Result, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("unknown cloud must fail")
	}
	f.MigrateVM(name, "g5k", DefaultMigrate(), func(_ migration.Result, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("same-cloud migration must fail")
	}
}

func TestMigrateSetSharesRegistry(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 4})
	names := vc.VMsAt("g5k")
	var results []migration.Result
	f.MigrateSet(names, "futuregrid", DefaultMigrate(), 2,
		func(rs []migration.Result, err error) { results = rs })
	f.K.Run()
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	var raw, wire int64
	for _, r := range results {
		raw += r.RawBytes
		wire += r.WireBytes
	}
	saving := 1 - float64(wire)/float64(raw)
	if saving < 0.3 {
		t.Fatalf("cluster migration saving %.1f%% below 30%%", saving*100)
	}
}

func TestConnectionSurvivesFederationMigration(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 1, "futuregrid": 1})
	a := f.VM(vc.VMsAt("g5k")[0])
	b := f.VM(vc.VMsAt("futuregrid")[0])
	conn := vine.NewConnection(f.Overlay, a.VirtualIP, b.VirtualIP, 30*sim.Second, 500*sim.Millisecond)
	f.K.Schedule(5*sim.Second, func() {
		f.MigrateVM(a.Name, "futuregrid", DefaultMigrate(), nil)
	})
	f.K.RunUntil(2 * sim.Minute)
	conn.Close()
	if conn.Broken {
		t.Fatalf("connection did not survive federation migration: %v", conn)
	}
}

func TestMigratableSpotMigratesInsteadOfKilling(t *testing.T) {
	f := fed(t)
	g5k := f.Cloud("g5k")
	var vc *VirtualCluster
	f.CreateCluster("spot", ClusterSpec{
		Image: "debian", Cores: 2, MemPages: 4096, CoW: true,
		Spot: true, Bid: 0.05,
		Distribution: map[string]int{"g5k": 2},
	}, func(c *VirtualCluster, e error) {
		if e != nil {
			t.Fatal(e)
		}
		vc = c
	})
	f.EnableMigratableSpot("g5k")
	f.K.RunUntil(2 * sim.Minute)
	// Price spike above the bid revokes both VMs -> migration, not death.
	g5k.Spot.ForcePrice(0.50)
	f.K.RunUntil(10 * sim.Minute)
	if f.SpotMigrations != 2 {
		t.Fatalf("spot migrations %d, want 2 (kills=%d)", f.SpotMigrations, f.SpotKills)
	}
	for _, v := range vc.VMs() {
		if v.State == vm.StateTerminated {
			t.Fatalf("spot VM %s was killed", v.Name)
		}
		if f.CloudOf(v.Name).Name != "futuregrid" {
			t.Fatalf("spot VM %s not relocated (at %s)", v.Name, f.CloudOf(v.Name).Name)
		}
	}
}

func TestMigratableSpotFallsBackToKill(t *testing.T) {
	f := NewFederation(1)
	g5k := f.AddCloud(cloudCfg("g5k", 2, 0.08))
	m := vm.NewContentModel(11, "debian", 0.1, 0.5, 2048)
	g5k.PutImage(vm.NewDiskImage("debian", 256, 65536, m))
	// Single cloud: nowhere to migrate.
	f.CreateCluster("spot", ClusterSpec{
		Image: "debian", Cores: 1, MemPages: 1024, CoW: true,
		Spot: true, Bid: 0.01, Distribution: map[string]int{"g5k": 1},
	}, func(_ *VirtualCluster, e error) {
		if e != nil {
			t.Fatal(e)
		}
	})
	f.EnableMigratableSpot("g5k")
	f.K.RunUntil(time30)
	g5k.Spot.ForcePrice(0.50)
	f.K.RunUntil(2 * time30)
	if f.SpotKills != 1 || f.SpotMigrations != 0 {
		t.Fatalf("kills=%d migrations=%d", f.SpotKills, f.SpotMigrations)
	}
}

const time30 = 30 * sim.Second

// TestSpotHooksCountInRegistry: every spot hook records a kill or a
// migration in the federation's field and in its registry counter alike —
// the cluster hooks (E9, examples/spot-migration, skyctl -spot) as well as
// the federation-wide one.
func TestSpotHooksCountInRegistry(t *testing.T) {
	for _, tc := range []struct {
		name              string
		wire              func(f *Federation, vc *VirtualCluster)
		kills, migrations int
	}{
		{name: "cluster kill", wire: func(_ *Federation, vc *VirtualCluster) { vc.WireSpotKill("g5k") }, kills: 2},
		{name: "cluster migrate", wire: func(_ *Federation, vc *VirtualCluster) { vc.WireSpotMigration("g5k") }, migrations: 2},
		{name: "federation migrate", wire: func(f *Federation, _ *VirtualCluster) { f.EnableMigratableSpot("g5k") }, migrations: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fed(t)
			var vc *VirtualCluster
			f.CreateCluster("spot", ClusterSpec{
				Image: "debian", Cores: 2, MemPages: 4096, CoW: true,
				Spot: true, Bid: 0.05, Distribution: map[string]int{"g5k": 2},
			}, func(c *VirtualCluster, e error) {
				if e != nil {
					t.Fatal(e)
				}
				vc = c
			})
			f.K.RunUntil(2 * sim.Minute)
			tc.wire(f, vc)
			f.Cloud("g5k").Spot.ForcePrice(0.50)
			f.K.RunUntil(10 * sim.Minute)
			if f.SpotKills != tc.kills || f.SpotMigrations != tc.migrations {
				t.Fatalf("fields: kills=%d migrations=%d, want %d and %d",
					f.SpotKills, f.SpotMigrations, tc.kills, tc.migrations)
			}
			kills := f.Obs.Value("sky_core_spot_kills_total")
			migrations := f.Obs.Value("sky_core_spot_migrations_total")
			if kills != float64(tc.kills) || migrations != float64(tc.migrations) {
				t.Fatalf("registry: kills=%v migrations=%v, want %d and %d",
					kills, migrations, tc.kills, tc.migrations)
			}
		})
	}
}

func TestAutonomicCostAdaptation(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"futuregrid": 3}) // expensive cloud
	f.EnableAutonomic(time30, autonomic.CostPolicy{Threshold: 0.2})
	f.K.RunUntil(20 * sim.Minute)
	f.Engine().Stop()
	f.K.Run()
	// g5k is 33% cheaper: all 3 VMs should have moved there.
	for _, v := range vc.VMs() {
		if f.CloudOf(v.Name).Name != "g5k" {
			t.Fatalf("VM %s not relocated to the cheap cloud", v.Name)
		}
	}
	if f.Engine().Executed < 3 {
		t.Fatalf("engine executed %d", f.Engine().Executed)
	}
}

func TestSnapshotReflectsFederation(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 2, "futuregrid": 1})
	s := f.Snapshot()
	if len(s.Sites) != 2 {
		t.Fatalf("sites %v", s.Sites)
	}
	if len(s.VMSite) != 3 {
		t.Fatalf("vm sites %v", s.VMSite)
	}
	for _, name := range vc.VMsAt("g5k") {
		if s.VMSite[name] != "g5k" {
			t.Fatalf("snapshot placement wrong for %s", name)
		}
	}
	if s.Price["g5k"] != 0.08 || s.Price["futuregrid"] != 0.12 {
		t.Fatalf("prices %v", s.Price)
	}
}

func TestMigrateWorkersKeepsJobRunning(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 4})
	var res mapreduce.Result
	if err := vc.RunJob(mapreduce.BlastJob(48), func(r mapreduce.Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	f.K.Schedule(30*sim.Second, func() {
		names := vc.VMsAt("g5k")[:2]
		vc.MigrateWorkers(names, "futuregrid", 2, nil)
	})
	f.K.Run()
	if res.Makespan == 0 {
		t.Fatal("job did not survive worker migration")
	}
	if res.MapsExecuted != 48 {
		t.Fatalf("maps executed %d: live migration should not lose work", res.MapsExecuted)
	}
	if len(vc.VMsAt("futuregrid")) != 2 {
		t.Fatalf("workers not relocated: %v", vc.VMsAt("futuregrid"))
	}
}

func TestTerminateCluster(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 3})
	vc.Terminate()
	if vc.Size() != 0 {
		t.Fatalf("size after terminate %d", vc.Size())
	}
	if f.Cloud("g5k").FreeCores() != 64 {
		t.Fatalf("resources leaked: %d", f.Cloud("g5k").FreeCores())
	}
}

func TestMigrationRejectedAfterRevocation(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 1})
	name := vc.VMsAt("g5k")[0]
	f.RevokeCloud("futuregrid")
	var err error
	f.MigrateVM(name, "futuregrid", DefaultMigrate(), func(_ migration.Result, e error) { err = e })
	f.K.Run()
	if err == nil {
		t.Fatal("migration to a revoked cloud must be rejected")
	}
	// The VM must still be intact at the source after rollback.
	if f.CloudOf(name).Name != "g5k" {
		t.Fatalf("VM displaced to %s by failed migration", f.CloudOf(name).Name)
	}
	if f.Cloud("g5k").HostOf(name) == nil {
		t.Fatal("rollback lost the source reservation")
	}
	if f.Broker.Rejections == 0 {
		t.Fatal("broker did not record the rejection")
	}
}

func TestSecureSessionResumedAcrossMigrations(t *testing.T) {
	f := fed(t)
	vc := makeCluster(t, f, map[string]int{"g5k": 2})
	names := vc.VMsAt("g5k")
	f.MigrateVM(names[0], "futuregrid", DefaultMigrate(), func(_ migration.Result, e error) {
		if e != nil {
			t.Fatal(e)
		}
		f.MigrateVM(names[1], "futuregrid", DefaultMigrate(), nil)
	})
	f.K.Run()
	if f.Broker.Handshakes != 1 || f.Broker.Resumptions != 1 {
		t.Fatalf("handshakes=%d resumptions=%d, want 1/1",
			f.Broker.Handshakes, f.Broker.Resumptions)
	}
}
