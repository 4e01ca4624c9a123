package experiments

import (
	"fmt"

	"repro/internal/autonomic"
	"repro/internal/core"
	"repro/internal/emr"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/netmon"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vine"
	"repro/internal/vm"
)

// seedImages installs the debian base image on every cloud of a manually
// assembled federation.
func seedImages(f *core.Federation, seed int64) {
	for i, c := range f.Clouds() {
		m := vm.NewContentModel(seed+int64(i)*17, "debian", 0.1, 0.5, 2048)
		c.PutImage(vm.NewDiskImage("debian", 1024, 65536, m))
	}
}

// E5NetworkTransparency reproduces §III-B: with ViNe reconfiguration, open
// TCP connections survive inter-cloud live migration; without it they
// break. Also reports the reconfiguration latency as overlay size grows.
func E5NetworkTransparency(seed int64) []*metrics.Table {
	t := metrics.NewTable("E5a: TCP connection survival across inter-cloud live migration",
		"overlay reconfig", "connections", "survived", "max outage (ms)")
	for _, reconfig := range []bool{false, true} {
		f := newFederation(seed, 2)
		vc := mustCluster(f, "e5", map[string]int{"cloud0": 4, "cloud1": 4})
		// Connections from every cloud1 VM to one cloud0 VM, then migrate it.
		target := f.VM(vc.VMsAt("cloud0")[0])
		var conns []*vine.Connection
		for _, peer := range vc.VMsAt("cloud1") {
			conns = append(conns, vine.NewConnection(f.Overlay,
				f.VM(peer).VirtualIP, target.VirtualIP, 30*sim.Second, 500*sim.Millisecond))
		}
		reconfig := reconfig
		f.K.Schedule(5*sim.Second, func() {
			f.MigrateVM(target.Name, "cloud1", core.MigrateOptions{Reconfigure: reconfig}, nil)
		})
		f.K.RunUntil(3 * sim.Minute)
		survived := 0
		var maxOutage sim.Time
		for _, c := range conns {
			if !c.Broken {
				survived++
			}
			if c.MaxOutage > maxOutage {
				maxOutage = c.MaxOutage
			}
			c.Close()
		}
		label := "off (state of the art)"
		outage := "∞ (broken)"
		if reconfig {
			label = "on (§III-B)"
			outage = fmt.Sprintf("%.0f", float64(maxOutage)/float64(sim.Millisecond))
		}
		t.AddRowf(label, len(conns), survived, outage)
	}
	t2 := metrics.NewTable("E5b: overlay reconfiguration latency vs federation size",
		"clouds (VRs)", "reconfig latency (ms)")
	for _, n := range []int{2, 4, 8} {
		f := newFederation(seed, n)
		vc := mustCluster(f, "e5b", map[string]int{"cloud0": 1, "cloud1": 1})
		name := vc.VMsAt("cloud0")[0]
		var lat sim.Time
		done := false
		f.MigrateVM(name, "cloud1", core.DefaultMigrate(), nil)
		// Measure a direct overlay reconfiguration after the migration.
		f.K.Run()
		v := f.VM(name)
		h := f.Cloud("cloud0").Hosts()[0]
		f.Cloud("cloud0").Adopt(v)
		f.Overlay.VMMoved(v.VirtualIP, h.Node, true, func(l sim.Time) { lat = l; done = true })
		f.K.Run()
		if !done {
			panic("reconfiguration never converged")
		}
		t2.AddRowf(n, float64(lat)/float64(sim.Millisecond))
	}
	return []*metrics.Table{t, t2}
}

// E6PatternDetection reproduces §III-C's detection result: the passive
// hypervisor-level monitor infers communication patterns matching the
// invasive (instrumented-library) ground truth, across synthetic patterns
// and a real MapReduce shuffle, at several packet-sampling rates.
func E6PatternDetection(seed int64) []*metrics.Table {
	t := metrics.NewTable("E6: passive traffic-matrix inference vs invasive ground truth",
		"pattern", "sampling", "correlation", "edge precision", "edge recall", "rel. L1 error")
	report := func(pattern string, rate float64, truth, obs netmon.Matrix) {
		corr := netmon.Correlation(truth, obs)
		p, r := netmon.PrecisionRecall(truth, obs, 4*mb)
		t.AddRow(pattern, fmt.Sprintf("1/%d", int(1/rate)),
			fmt.Sprintf("%.4f", corr), fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.2f", r), fmt.Sprintf("%.4f", netmon.NormalizedError(truth, obs)))
	}
	for _, pattern := range []string{"ring", "all-to-all", "master-worker"} {
		for _, rate := range []float64{1.0, 0.1, 0.01} {
			k := sim.NewKernel(seed)
			net := simnet.New(k)
			s := net.AddSite("cloud", 125*mb, 125*mb)
			var nodes []*simnet.Node
			for i := 0; i < 8; i++ {
				nodes = append(nodes, s.AddNode(fmt.Sprintf("vm%d", i), 125*mb))
			}
			mon := netmon.New(net, rate, seed+99, "app:")
			rec := netmon.NewRecorder()
			spec := netmon.PatternSpec{Nodes: nodes, BytesPerTransfer: 8 * mb,
				Interval: sim.Second, Waves: 5, Tag: "app:" + pattern}
			switch pattern {
			case "ring":
				netmon.RunRing(net, spec, rec, nil)
			case "all-to-all":
				netmon.RunAllToAll(net, spec, rec, nil)
			default:
				netmon.RunMasterWorker(net, spec, rec, nil)
			}
			k.Run()
			report(pattern, rate, rec.Truth, mon.Matrix())
		}
	}
	// Real application: MapReduce shuffle. The invasive baseline is exact
	// per-transfer accounting (full capture); the passive detector samples.
	for _, rate := range []float64{1.0, 0.1, 0.01} {
		f := newFederation(seed, 2)
		truthMon := netmon.New(f.Net, 1.0, seed+1, "shuffle:")
		mon := netmon.New(f.Net, rate, seed+2, "shuffle:")
		vc := mustCluster(f, "e6", map[string]int{"cloud0": 4, "cloud1": 4})
		if err := vc.RunJob(mapreduce.SortJob(32, 8), nil); err != nil {
			panic(err)
		}
		f.K.Run()
		report("mapreduce-shuffle", rate, truthMon.Matrix(), mon.Matrix())
	}
	return []*metrics.Table{t}
}

// E7AutonomicAdaptation reproduces §III-C's adaptation scenarios: the cost
// policy relocates a cluster when prices diverge, and communication-aware
// placement cuts inter-cloud traffic versus oblivious spreading.
func E7AutonomicAdaptation(seed int64) []*metrics.Table {
	t := metrics.NewTable("E7a: price-driven adaptation (3-VM cluster started on the 50%-pricier cloud)",
		"policy", "migrations", "final site", "compute cost ($)", "WAN traffic")
	for _, enabled := range []bool{false, true} {
		f := newFederation(seed, 2) // cloud0 $0.08, cloud1 $0.12
		vc := mustCluster(f, "e7", map[string]int{"cloud1": 3})
		if enabled {
			f.EnableAutonomic(30*sim.Second, autonomic.CostPolicy{Threshold: 0.2})
		}
		f.K.RunUntil(30 * sim.Minute)
		if f.Engine() != nil {
			f.Engine().Stop()
		}
		f.K.Run()
		cost := f.Cloud("cloud0").Cost() + f.Cloud("cloud1").Cost()
		site := "cloud1"
		if len(vc.VMsAt("cloud0")) == 3 {
			site = "cloud0"
		}
		label := "static"
		if enabled {
			label = "cost policy"
		}
		t.AddRowf(label, f.Migrations, site, cost, metrics.FmtBytes(f.Net.TotalWANBytes()))
	}

	t2 := metrics.NewTable("E7b: communication-aware placement of two chatty 4-VM groups",
		"placement", "cross-cloud traffic per round", "reduction")
	vms, traffic := chattyGroups()
	sites := []string{"cloud0", "cloud1"}
	capacity := map[string]int{"cloud0": 4, "cloud1": 4}
	rr := autonomic.PlaceRoundRobin(vms, sites, capacity)
	ca := autonomic.PlaceCommunicationAware(vms, traffic, sites, capacity, nil)
	autonomic.RefineKL(ca, traffic, 128)
	cutRR := autonomic.CutBytes(rr, traffic)
	cutCA := autonomic.CutBytes(ca, traffic)
	t2.AddRowf("round-robin (oblivious)", metrics.FmtBytes(cutRR), "-")
	t2.AddRowf("communication-aware", metrics.FmtBytes(cutCA),
		metrics.FmtPct(1-float64(cutCA)/float64(cutRR)))
	return []*metrics.Table{t, t2}
}

func chattyGroups() ([]string, netmon.Matrix) {
	m := make(netmon.Matrix)
	var vms []string
	for g := 0; g < 2; g++ {
		var group []string
		for i := 0; i < 4; i++ {
			group = append(group, fmt.Sprintf("g%d-vm%d", g, i))
		}
		for _, x := range group {
			for _, y := range group {
				if x != y {
					m.Add(x, y, 32*mb)
				}
			}
		}
		vms = append(vms, group...)
	}
	m.Add("g0-vm0", "g1-vm0", mb/4)
	return vms, m
}

// E8ElasticMapReduce reproduces §IV's Elastic MapReduce service: deadline
// jobs on federated clouds, static vs elastic provisioning under cheapest
// and fastest resource-selection policies.
func E8ElasticMapReduce(seed int64) []*metrics.Table {
	t := metrics.NewTable("E8: deadline MapReduce (128 maps x 20s), 4 initial workers, heterogeneous clouds",
		"provisioning", "deadline (s)", "finished (s)", "met?", "workers added", "cost ($)")
	job := mapreduce.Job{Name: "deadline", NumMaps: 128, NumReduces: 2,
		MapCPU: 20, ReduceCPU: 4, ShuffleBytesPerMapPerReduce: 256 << 10}
	deadline := 300 * sim.Second
	run := func(label string, elastic bool, policy emr.SelectionPolicy) {
		// Heterogeneous federation: cloud0 hosts the initial workers;
		// cloud1 is cheap and ordinary, cloud2 fast and expensive — so
		// cheapest and fastest selection genuinely diverge.
		f := core.NewFederation(seed)
		for i, d := range []struct {
			price, speed float64
		}{{0.08, 1.0}, {0.03, 1.0}, {0.25, 2.5}} {
			name := fmt.Sprintf("cloud%d", i)
			f.AddCloud(cloudConfig(name, 16, d.price, d.speed))
		}
		seedImages(f, seed)
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				f.SetWANLatency(fmt.Sprintf("cloud%d", i), fmt.Sprintf("cloud%d", j), 60*sim.Millisecond)
			}
		}
		vc := mustCluster(f, "e8", map[string]int{"cloud0": 4})
		var rep emr.Report
		var res mapreduce.Result
		if elastic {
			svc := emr.New(core.EMRAdapter{VC: vc}, policy)
			if err := svc.Submit(emr.JobSpec{Job: job, Deadline: deadline, SlotsPerWorker: 2},
				func(r emr.Report) { rep = r }); err != nil {
				panic(err)
			}
			f.K.Run()
			res = rep.Result
		} else {
			if err := vc.RunJob(job, func(r mapreduce.Result) { res = r }); err != nil {
				panic(err)
			}
			f.K.Run()
			rep.FinishedAt = f.K.Now()
			rep.MetDeadline = rep.FinishedAt <= deadline
		}
		var cost float64
		for _, c := range f.Clouds() {
			cost += c.Cost()
		}
		t.AddRowf(label, deadline.Seconds(), res.Makespan.Seconds(),
			fmt.Sprintf("%v", rep.MetDeadline), rep.WorkersAdded, cost)
	}
	run("static", false, emr.SelectCheapest)
	run("elastic / cheapest", true, emr.SelectCheapest)
	run("elastic / fastest", true, emr.SelectFastest)
	return []*metrics.Table{t}
}

// E9MigratableSpot reproduces §IV's migratable spot instances: when a price
// spike revokes spot VMs mid-job, killing loses completed map work while
// migrating preserves it.
func E9MigratableSpot(seed int64) []*metrics.Table {
	t := metrics.NewTable("E9: spot revocation during BLAST (96 maps), kill vs migrate",
		"revocation behaviour", "makespan (s)", "maps executed", "wasted maps", "spot events")
	run := func(label string, migrate bool) {
		f := core.NewFederation(seed)
		c0 := f.AddCloud(cloudConfig("cloud0", 16, 0.10, 1.0))
		c1 := f.AddCloud(cloudConfig("cloud1", 16, 0.10, 1.0))
		f.SetWANLatency("cloud0", "cloud1", 60*sim.Millisecond)
		seedImages(f, seed)
		_ = c1
		// Suppress random spikes: this experiment scripts its own price
		// spike so the comparison is controlled.
		c0.Spot.SpikeProb = 0
		var res mapreduce.Result
		f.CreateCluster("spot", core.ClusterSpec{
			Image: "debian", Cores: 2, MemPages: 8192, CoW: true,
			Spot: true, Bid: 0.05,
			Distribution: map[string]int{"cloud0": 6},
		}, func(vc *core.VirtualCluster, e error) {
			if e != nil {
				panic(e)
			}
			// Wire the revocation behaviour before the first market tick.
			if migrate {
				vc.WireSpotMigration("cloud0")
			} else {
				vc.WireSpotKill("cloud0")
			}
			if err := vc.RunJob(mapreduce.BlastJob(96), func(r mapreduce.Result) { res = r }); err != nil {
				panic(err)
			}
			// Price spike at t=+120s revokes all six spot VMs.
			f.K.Schedule(120*sim.Second, func() { c0.Spot.ForcePrice(0.50) })
			if !migrate {
				// The kill baseline must re-provision on-demand
				// replacements (as a user script would) or the job never
				// finishes.
				f.K.Schedule(150*sim.Second, func() {
					vc.GrowOnDemand("cloud1", 6, func(err error) {
						if err != nil {
							panic(err)
						}
					})
				})
			}
		})
		f.K.Run()
		events := fmt.Sprintf("%d migrations, %d kills", f.SpotMigrations, f.SpotKills)
		t.AddRowf(label, res.Makespan.Seconds(), res.MapsExecuted, res.MapsExecuted-96, events)
	}
	run("kill + restart elsewhere", false)
	run("migratable spot (§IV)", true)
	return []*metrics.Table{t}
}
