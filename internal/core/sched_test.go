package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/emr"
	"repro/internal/mapreduce"
	"repro/internal/nimbus"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vm"
)

// schedFederation builds a federation with n identical clouds seeded with a
// "debian" image, plus the scheduler.
func schedFederation(t *testing.T, seed int64, n, hostsPer int, cfg sched.Config) (*Federation, *sched.Scheduler) {
	t.Helper()
	f := NewFederation(seed)
	for i := 0; i < n; i++ {
		name := []string{"cloud0", "cloud1", "cloud2", "cloud3"}[i]
		c := f.AddCloud(nimbus.Config{
			Name: name, Hosts: hostsPer,
			HostSpec: nimbus.HostSpec{Cores: 4, MemPages: 64 * 8192, Speed: 1.0},
			NICBW:    125 << 20, WANUp: 60 << 20, WANDown: 60 << 20,
			PricePerCoreHour: 0.08,
		})
		m := vm.NewContentModel(seed+int64(i)*13, "debian", 0.1, 0.5, 1024)
		c.PutImage(vm.NewDiskImage("debian", 256, 65536, m))
	}
	s := f.EnableScheduler(SchedulerOptions{Sched: cfg})
	return f, s
}

// TestFederationSchedulerRunsJobs: two tenants' jobs run on real virtual
// clusters across two clouds and complete.
func TestFederationSchedulerRunsJobs(t *testing.T) {
	f, s := schedFederation(t, 11, 2, 2, sched.Config{})
	s.AddTenant("a", 1)
	s.AddTenant("b", 1)
	var ids []string
	for i := 0; i < 4; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		id, err := s.Submit(sched.JobSpec{
			Tenant: tenant, Name: "job", Workers: 2, CoresPerWorker: 2,
			MR: mapreduce.Job{Name: "blast", NumMaps: 8, NumReduces: 1, MapCPU: 10, ReduceCPU: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	f.K.Run()
	clouds := map[string]bool{}
	for _, id := range ids {
		ji, ok := s.Poll(id)
		if !ok || ji.State != sched.Done {
			t.Fatalf("job %s state %v err %v", id, ji.State, ji.Err)
		}
		if ji.Result.MapsExecuted < 8 {
			t.Errorf("job %s executed %d maps", id, ji.Result.MapsExecuted)
		}
		clouds[ji.Cloud] = true
	}
	if len(clouds) < 2 {
		t.Errorf("all jobs landed on one cloud: %v", clouds)
	}
	// All per-job clusters torn down: no managed VMs remain.
	if n := len(f.VMNames()); n != 0 {
		t.Errorf("%d VMs leaked after jobs finished", n)
	}
}

// TestFederationSchedulerGangSpansClouds: a job wider than any single
// cloud runs as one virtual cluster spanning both clouds over the overlay,
// pays real cross-site shuffle traffic, and tears down cleanly.
func TestFederationSchedulerGangSpansClouds(t *testing.T) {
	f, s := schedFederation(t, 17, 2, 2, sched.Config{})
	s.AddTenant("a", 1)
	// 2 clouds x 2 hosts x 4 cores = 8 cores each; 6 workers x 2 cores = 12
	// cores needs both.
	id, err := s.Submit(sched.JobSpec{
		Tenant: "a", Name: "wide", Workers: 6, CoresPerWorker: 2,
		MR: mapreduce.Job{Name: "sort", NumMaps: 12, NumReduces: 2, MapCPU: 5,
			ReduceCPU: 2, ShuffleBytesPerMapPerReduce: 4 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.K.Run()
	ji, _ := s.Poll(id)
	if ji.State != sched.Done {
		t.Fatalf("wide job state %v err %v", ji.State, ji.Err)
	}
	if !ji.Plan.Spanning() || ji.Plan.Workers() != 6 {
		t.Fatalf("plan %v: want a 6-worker plan spanning both clouds", ji.Plan)
	}
	if s.SpanningDispatched() != 1 {
		t.Errorf("SpanningDispatched = %d, want 1", s.SpanningDispatched())
	}
	// The gang's shuffle really crossed the WAN.
	if ji.Result.CrossSiteShuffleBytes == 0 {
		t.Error("spanning job recorded no cross-site shuffle bytes")
	}
	if f.Net.TotalWANBytes() == 0 {
		t.Error("no WAN traffic despite a spanning cluster")
	}
	if n := len(f.VMNames()); n != 0 {
		t.Errorf("%d VMs leaked after the spanning job finished", n)
	}
}

// TestFederationSchedulerSpotRevocation: a price spike revokes a running
// job's spot workers; the scheduler replaces them on-demand and the job
// still completes with its work preserved.
func TestFederationSchedulerSpotRevocation(t *testing.T) {
	f, s := schedFederation(t, 23, 2, 2, sched.Config{})
	f.WireSchedulerSpot("cloud0")
	f.WireSchedulerSpot("cloud1")
	s.AddTenant("a", 1)
	id, err := s.Submit(sched.JobSpec{
		Tenant: "a", Name: "spotty", Workers: 2, CoresPerWorker: 2,
		Spot: true, Bid: 0.05,
		MR: mapreduce.Job{Name: "blast", NumMaps: 32, NumReduces: 1, MapCPU: 30, ReduceCPU: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.K.Schedule(120*sim.Second, func() {
		f.Cloud("cloud0").Spot.ForcePrice(1.0)
		f.Cloud("cloud1").Spot.ForcePrice(1.0)
	})
	f.K.Run()
	ji, _ := s.Poll(id)
	if ji.State != sched.Done {
		t.Fatalf("job state %v err %v", ji.State, ji.Err)
	}
	if ji.Revocations == 0 {
		t.Fatal("no revocations observed; spike did not hit the job")
	}
	if s.SpotReplacements() == 0 {
		t.Error("scheduler requested no replacement capacity")
	}
	if ji.Result.MapsExecuted < 32 {
		t.Errorf("job finished with %d map executions, want >= 32", ji.Result.MapsExecuted)
	}
}

// TestEMRGateRoutesThroughScheduler: an emr deadline job with a gate queues
// under the tenant's share and still completes with a report.
func TestEMRGateRoutesThroughScheduler(t *testing.T) {
	f, s := schedFederation(t, 31, 2, 2, sched.Config{})
	var vc *VirtualCluster
	f.CreateCluster("emr", ClusterSpec{
		Image: "debian", Cores: 2, MemPages: 8192, CoW: true,
		Distribution: map[string]int{"cloud0": 2},
	}, func(c *VirtualCluster, err error) {
		if err != nil {
			t.Fatal(err)
		}
		vc = c
	})
	f.K.Run()
	svc := emr.New(EMRAdapter{VC: vc}, emr.SelectCheapest)
	svc.Gate = f.EMRGate("analytics")
	var rep emr.Report
	gotReport := false
	err := svc.Submit(emr.JobSpec{
		Job:      mapreduce.Job{Name: "gated", NumMaps: 8, NumReduces: 1, MapCPU: 5, ReduceCPU: 1},
		Deadline: 2 * sim.Hour,
	}, func(r emr.Report) {
		rep = r
		gotReport = true
	})
	if err != nil {
		t.Fatal(err)
	}
	f.K.Run()
	if !gotReport {
		t.Fatal("no report from gated job")
	}
	if rep.Err != nil {
		t.Fatalf("gated job failed: %v", rep.Err)
	}
	if !rep.MetDeadline {
		t.Error("gated job missed a 2-hour deadline")
	}
	if s.Dispatched() == 0 || s.DeliveredCoreSeconds("analytics") <= 0 {
		t.Errorf("job did not flow through the scheduler: dispatched=%d delivered=%.0f",
			s.Dispatched(), s.DeliveredCoreSeconds("analytics"))
	}
}

// TestEMRGateSerializesJobs: two gated deadline jobs on one service run
// back-to-back instead of the second hard-failing on the busy cluster.
func TestEMRGateSerializesJobs(t *testing.T) {
	f, _ := schedFederation(t, 37, 2, 2, sched.Config{})
	var vc *VirtualCluster
	f.CreateCluster("emr", ClusterSpec{
		Image: "debian", Cores: 2, MemPages: 8192, CoW: true,
		Distribution: map[string]int{"cloud0": 2},
	}, func(c *VirtualCluster, err error) {
		if err != nil {
			t.Fatal(err)
		}
		vc = c
	})
	f.K.Run()
	svc := emr.New(EMRAdapter{VC: vc}, emr.SelectCheapest)
	svc.Gate = f.EMRGate("analytics")
	var reports []emr.Report
	for i := 0; i < 2; i++ {
		err := svc.Submit(emr.JobSpec{
			Job:      mapreduce.Job{Name: fmt.Sprintf("gated-%d", i), NumMaps: 8, NumReduces: 1, MapCPU: 5, ReduceCPU: 1},
			Deadline: 2 * sim.Hour,
		}, func(r emr.Report) { reports = append(reports, r) })
		if err != nil {
			t.Fatal(err)
		}
	}
	f.K.Run()
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("gated job %s failed: %v", r.Job, r.Err)
		}
		if !r.MetDeadline {
			t.Errorf("gated job %s missed its deadline", r.Job)
		}
	}
}

// TestNotifySchedulerPatterns: shuffle traffic observed by the passive
// monitor is classified and fed back as a pattern event for the tenant.
func TestNotifySchedulerPatterns(t *testing.T) {
	f, s := schedFederation(t, 41, 2, 2, sched.Config{})
	f.AttachMonitor(1.0, "shuffle:")
	s.AddTenant("a", 1)
	id, err := s.Submit(sched.JobSpec{
		Tenant: "a", Name: "sorty", Workers: 4, CoresPerWorker: 2,
		MR: mapreduce.Job{Name: "sort", NumMaps: 16, NumReduces: 4, MapCPU: 4,
			ReduceCPU: 30, ShuffleBytesPerMapPerReduce: 16 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Classify periodically while the job runs (the ticker would keep the
	// simulation alive, so drive Step manually until the job settles).
	cancel := f.K.Ticker(5*sim.Second, func() { f.NotifySchedulerPatterns() })
	for {
		ji, _ := s.Poll(id)
		if ji.State != sched.Running && ji.State != sched.Queued {
			break
		}
		if !f.K.Step() {
			break
		}
	}
	cancel()
	if ji, _ := s.Poll(id); ji.State != sched.Done {
		t.Fatalf("job state %v", ji.State)
	}
	if s.PatternEvents() == 0 {
		t.Fatal("no pattern events reached the scheduler")
	}
	if p := s.PatternOf("a"); p == "" {
		t.Error("tenant pattern not recorded")
	}
}

// TestFederationDeployFaultRetried: a transient deploy fault on the chosen
// cloud fails the gang's CreateCluster; the backend tears the partial gang
// down and reports the error as a transient launch failure, and the
// scheduler requeues the job, backs off, re-places it, and the retried
// launch completes the job.
func TestFederationDeployFaultRetried(t *testing.T) {
	f, s := schedFederation(t, 29, 2, 2, sched.Config{})
	s.AddTenant("a", 1)
	// Arm one strike on each cloud: whichever the placement picks, the
	// first deploy faults.
	f.Cloud("cloud0").FailNextDeploys(1)
	f.Cloud("cloud1").FailNextDeploys(1)
	id, err := s.Submit(sched.JobSpec{
		Tenant: "a", Name: "bumpy", Workers: 2, CoresPerWorker: 2,
		MR: mapreduce.Job{Name: "blast", NumMaps: 4, NumReduces: 1, MapCPU: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.K.Run()
	ji, _ := s.Poll(id)
	if ji.State != sched.Done {
		t.Fatalf("job state %v err %v, want Done despite the deploy fault", ji.State, ji.Err)
	}
	if got := s.LaunchRetries(); got < 1 {
		t.Fatalf("scheduler launch retries = %d, want >= 1", got)
	}
	if n := len(f.VMNames()); n != 0 {
		t.Errorf("%d VMs leaked after the retried launch", n)
	}
}

// TestFederationDeployFaultsExhausted: faults past the retry budget fail
// the job with the transient error surfaced, after exactly the scheduler's
// retry budget of requeues, and no cluster debris remains.
func TestFederationDeployFaultsExhausted(t *testing.T) {
	f, s := schedFederation(t, 31, 2, 2, sched.Config{})
	s.AddTenant("a", 1)
	f.Cloud("cloud0").FailNextDeploys(10)
	f.Cloud("cloud1").FailNextDeploys(10)
	id, err := s.Submit(sched.JobSpec{
		Tenant: "a", Name: "doomed", Workers: 2, CoresPerWorker: 2,
		MR: mapreduce.Job{Name: "blast", NumMaps: 4, NumReduces: 1, MapCPU: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.K.Run()
	ji, _ := s.Poll(id)
	if ji.State != sched.Failed {
		t.Fatalf("job state %v, want Failed once retries are exhausted", ji.State)
	}
	if !errors.Is(ji.Err, nimbus.ErrTransientDeploy) {
		t.Errorf("job error %v, want the transient deploy fault surfaced", ji.Err)
	}
	if got := s.LaunchRetries(); got != sched.LaunchRetryBudget {
		t.Errorf("scheduler launch retries = %d, want the budget of %d", got, sched.LaunchRetryBudget)
	}
	if n := len(f.VMNames()); n != 0 {
		t.Errorf("%d VMs leaked after the failed launch", n)
	}
}
