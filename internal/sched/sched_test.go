package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/netmon"
	"repro/internal/sim"
)

// saturatedBackend: one cloud, 8 cores — room for exactly two 4-core jobs.
func saturatedBackend(k *sim.Kernel) *SimBackend {
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	return b
}

func submitN(t *testing.T, s *Scheduler, tenant string, n int, spec JobSpec) []string {
	t.Helper()
	spec.Tenant = tenant
	ids := make([]string, n)
	for i := range ids {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		ids[i] = id
	}
	return ids
}

// TestFairShareOrdering checks weighted arbitration: under saturation a
// weight-3 tenant receives ~3x the core-seconds of a weight-1 tenant, and
// delivered shares converge within 10% of entitlement.
func TestFairShareOrdering(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	spec := JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100}
	submitN(t, s, "gold", 40, spec)
	submitN(t, s, "silver", 40, spec)
	// Run while both tenants still have backlog, then measure.
	k.RunUntil(1500 * sim.Second)
	if s.TenantQueueLen("gold") == 0 || s.TenantQueueLen("silver") == 0 {
		t.Fatal("backlog drained; shares not measured under contention")
	}
	shares := s.Shares()
	entitled := s.EntitledShares()
	for _, tenant := range []string{"gold", "silver"} {
		rel := math.Abs(shares[tenant]-entitled[tenant]) / entitled[tenant]
		if rel > 0.10 {
			t.Errorf("%s share %.3f vs entitled %.3f (relative error %.1f%%)",
				tenant, shares[tenant], entitled[tenant], rel*100)
		}
	}
}

// TestFairShareDispatchOrder: with equal usage, the neediest (per weight)
// tenant is served first and charging interleaves dispatches 3:1.
func TestFairShareDispatchOrder(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10) // four 4-core jobs at once
	s := New(b, Config{})
	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	spec := JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100}
	gold := submitN(t, s, "gold", 4, spec)
	silver := submitN(t, s, "silver", 4, spec)
	k.RunUntil(1 * sim.Second)
	running := func(ids []string) int {
		n := 0
		for _, id := range ids {
			if ji, _ := s.Poll(id); ji.State == Running {
				n++
			}
		}
		return n
	}
	if g, sv := running(gold), running(silver); g != 3 || sv != 1 {
		t.Fatalf("first wave: gold=%d silver=%d running, want 3/1", g, sv)
	}
}

// TestBackfill: a blocked wide job reserves future capacity; a short narrow
// job slides past it without delaying the reserved start.
func TestBackfill(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	// Occupy 6 of 8 cores until t=200.
	hold := submitN(t, s, "a", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})[0]
	// Head job needs 8 cores: blocked until the holder finishes.
	wide := submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	// Short 2-core job fits the leftover cores and finishes well before
	// t=200: backfill-eligible.
	short := submitN(t, s, "a", 1, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	k.Run()
	hi, _ := s.Poll(hold)
	wi, _ := s.Poll(wide)
	si, _ := s.Poll(short)
	if si.Started >= wi.Started {
		t.Fatalf("short job did not backfill: short started %v, wide %v", si.Started, wi.Started)
	}
	if !si.Backfilled {
		t.Error("short job not flagged as backfilled")
	}
	if wi.Started != hi.Finished {
		t.Errorf("wide job delayed: started %v, holder finished %v", wi.Started, hi.Finished)
	}
	if s.Backfills() != 1 {
		t.Errorf("Backfills = %d, want 1", s.Backfills())
	}
}

// TestBackfillRespectsReservation: a backfill candidate that would still
// hold the reserved cores at the reservation time must wait.
func TestBackfillRespectsReservation(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	submitN(t, s, "a", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})
	wide := submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	// Long 2-core job: fits now but would still run at t=200 on the only
	// cloud, delaying the reservation — must not start before the wide job.
	long := submitN(t, s, "a", 1, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 500})[0]
	k.Run()
	wi, _ := s.Poll(wide)
	li, _ := s.Poll(long)
	if li.Started < wi.Started {
		t.Fatalf("long job jumped the reservation: long %v, wide %v", li.Started, wi.Started)
	}
}

// TestBackfillDisabled: strict FIFO keeps the short job behind the blocked
// head.
func TestBackfillDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{DisableBackfill: true})
	s.AddTenant("a", 1)
	submitN(t, s, "a", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})
	wide := submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	short := submitN(t, s, "a", 1, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	k.Run()
	wi, _ := s.Poll(wide)
	si, _ := s.Poll(short)
	if si.Started < wi.Started {
		t.Fatalf("backfill disabled but short (%v) passed wide (%v)", si.Started, wi.Started)
	}
	if s.Backfills() != 0 {
		t.Errorf("Backfills = %d, want 0", s.Backfills())
	}
}

// TestLocalityScoring: placement prefers the input-holding cloud, then the
// better-connected one once the local cloud is full.
func TestLocalityScoring(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("data", 4, 1, 0.10)
	b.AddCloud("far", 64, 1, 0.05)  // cheap, roomy, thin pipe
	b.AddCloud("near", 64, 1, 0.20) // pricey, roomy, fat pipe
	b.SetBandwidth("data", "far", 10<<20)
	b.SetBandwidth("data", "near", 100<<20)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	spec := JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100,
		InputSite: "data", InputBytes: 1 << 30}
	first := submitN(t, s, "t", 1, spec)[0]
	second := submitN(t, s, "t", 1, spec)[0]
	k.RunUntil(1 * sim.Second)
	fi, _ := s.Poll(first)
	si, _ := s.Poll(second)
	if fi.Cloud != "data" {
		t.Errorf("first job placed on %s, want the data-holding cloud", fi.Cloud)
	}
	if si.Cloud != "near" {
		t.Errorf("spill job placed on %s, want the better-connected cloud", si.Cloud)
	}
	// Remote execution pays the streaming time: the spill job must finish
	// later than the local one.
	k.Run()
	fi, _ = s.Poll(first)
	si, _ = s.Poll(second)
	if si.Finished <= fi.Finished {
		t.Errorf("remote job finished at %v, local at %v; want remote slower", si.Finished, fi.Finished)
	}
}

// TestScoreRejectsOverCapacity: a plan that overcommits a cloud scores
// negative.
func TestScoreRejectsOverCapacity(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	j := &Job{Spec: JobSpec{Tenant: "t", Workers: 8, CoresPerWorker: 2}}
	clouds := s.B.AppendClouds(nil)
	free := map[string]int{"c0": 8}
	p := s.ScorePlan(j, []Member{{Cloud: "c0", Workers: 8}}, clouds, free)
	if p.Score >= 0 {
		t.Fatalf("ScorePlan = %v for a 16-core plan slice on 8 free cores, want < 0", p.Score)
	}
}

// TestSpotRevocationMidJob: a revocation event on a running job triggers
// on-demand replacement growth and the job still completes.
func TestSpotRevocationMidJob(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2,
		EstimateSeconds: 300, Spot: true, Bid: 0.05})[0]
	k.Schedule(100*sim.Second, func() {
		s.Notify(Event{Kind: EventSpotRevoked, Job: id, Cloud: "c0"})
	})
	k.Run()
	ji, _ := s.Poll(id)
	if ji.State != Done {
		t.Fatalf("job state %v after revocation, want done", ji.State)
	}
	if ji.Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", ji.Revocations)
	}
	if s.SpotReplacements() != 1 || ji.GrewBy != 1 {
		t.Errorf("replacement not requested: SpotReplacements=%d GrewBy=%d", s.SpotReplacements(), ji.GrewBy)
	}
}

// TestSpotReplacementDisabled: the event is recorded but no growth happens.
func TestSpotReplacementDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{DisableSpotReplacement: true})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 300})[0]
	k.Schedule(100*sim.Second, func() {
		s.Notify(Event{Kind: EventSpotRevoked, Job: id, Cloud: "c0"})
	})
	k.Run()
	if s.SpotRevocations() != 1 || s.SpotReplacements() != 0 {
		t.Fatalf("revocations=%d replacements=%d, want 1/0", s.SpotRevocations(), s.SpotReplacements())
	}
}

// TestDeadlineGrowth: a job predicted late grows through the elastic hook.
func TestDeadlineGrowth(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{ElasticInterval: 10 * sim.Second, DeadlineMargin: 10 * sim.Second})
	s.Start()
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2,
		EstimateSeconds: 300, Deadline: 100 * sim.Second, MaxExtraWorkers: 2,
		MR: mapreduce.Job{NumMaps: 30, NumReduces: 2}})[0]
	k.Run()
	ji, _ := s.Poll(id)
	if s.GrowRequests() == 0 || ji.GrewBy == 0 {
		t.Fatalf("no elastic growth for a late job: GrowRequests=%d GrewBy=%d", s.GrowRequests(), ji.GrewBy)
	}
	if ji.GrewBy > 2 {
		t.Errorf("GrewBy=%d exceeds MaxExtraWorkers=2", ji.GrewBy)
	}
	if s.ShrinkRequests() == 0 {
		t.Errorf("elastic extras never shrunk after the map phase")
	}
	s.Stop()
}

// TestExternalJobsArbitrated: gate-admitted jobs queue under the tenant's
// share and run in fair order.
func TestExternalJobsArbitrated(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("emr", 1)
	ran := false
	_, err := s.Submit(JobSpec{Tenant: "emr", Name: "deadline-job", Workers: 4,
		CoresPerWorker: 1, EstimateSeconds: 50,
		Run: func(done func(error)) {
			ran = true
			k.Schedule(50*sim.Second, func() { done(nil) })
		}})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !ran {
		t.Fatal("external job never ran")
	}
	if s.DeliveredCoreSeconds("emr") != 4*50 {
		t.Errorf("external job delivered %.0f core-seconds, want 200", s.DeliveredCoreSeconds("emr"))
	}
}

// TestBackfillCountsStreamingTime: a remote-input backfill candidate whose
// streaming time pushes it past the reservation must not jump the queue,
// even though its CPU estimate alone would fit.
func TestBackfillCountsStreamingTime(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	b.AddCloud("data", 2, 1, 0.10) // holds input; too small to run jobs
	b.SetBandwidth("data", "c0", 10<<20)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	submitN(t, s, "a", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 200})
	wide := submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	// 4 cores fit c0's leftover now (and not the 2-core data cloud). The
	// CPU estimate of 100 s would finish before the t=200 reservation, but
	// streaming 2 GiB at 10 MB/s adds ~205 s: true finish ~t=305, so the
	// job would hold reserved cores past the reservation.
	streamy := submitN(t, s, "a", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100,
		InputSite: "data", InputBytes: 2 << 30})[0]
	k.Run()
	wi, _ := s.Poll(wide)
	si, _ := s.Poll(streamy)
	if si.Started < wi.Started {
		t.Fatalf("streaming job jumped the reservation: streamy %v, wide %v", si.Started, wi.Started)
	}
}

// TestExternalJobErrorRecorded: an external job that reports an error ends
// Failed, not Done.
func TestExternalJobErrorRecorded(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id, err := s.Submit(JobSpec{Tenant: "t", Workers: 1, EstimateSeconds: 10,
		Run: func(done func(error)) { done(fmt.Errorf("boom")) }})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	ji, _ := s.Poll(id)
	if ji.State != Failed || ji.Err == nil {
		t.Fatalf("external error not recorded: state=%v err=%v", ji.State, ji.Err)
	}
	if s.Completed() != 0 || s.Failures() != 1 {
		t.Errorf("stats: completed=%d failures=%d, want 0/1", s.Completed(), s.Failures())
	}
}

// TestSpotReplacementsSurviveMapDrainShrink: only deadline-chasing extras
// are handed back after the map phase; spot replacements stay.
func TestSpotReplacementsSurviveMapDrainShrink(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 32, 1, 0.10)
	s := New(b, Config{ElasticInterval: 10 * sim.Second, DeadlineMargin: 10 * sim.Second})
	s.Start()
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2,
		EstimateSeconds: 300, Deadline: 100 * sim.Second, MaxExtraWorkers: 1,
		MR: mapreduce.Job{NumMaps: 30, NumReduces: 2}})[0]
	k.Schedule(50*sim.Second, func() {
		s.Notify(Event{Kind: EventSpotRevoked, Job: id, Cloud: "c0"})
	})
	k.Run()
	ji, _ := s.Poll(id)
	if s.SpotReplacements() != 1 {
		t.Fatalf("SpotReplacements=%d, want 1", s.SpotReplacements())
	}
	if s.ShrinkRequests() == 0 {
		t.Fatal("deadline extras never shrunk")
	}
	// GrewBy = 1 deadline + 1 replacement; only the deadline extra may be
	// handed back.
	if ji.GrewBy != 2 {
		t.Fatalf("GrewBy=%d, want 2 (1 deadline + 1 replacement)", ji.GrewBy)
	}
	s.Stop()
}

// TestWaitNeverNegative: a job failed while still queued reports the time
// it actually spent waiting, not a negative duration.
func TestWaitNeverNegative(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	c := b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 50})
	var id string
	k.Schedule(100*sim.Second, func() {
		// Shrink the cloud below the job's demand after submit, so the
		// next cycle fails it in the queue.
		var err error
		id, err = s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 50})
		if err != nil {
			t.Error(err)
		}
		c.SetTotal(4)
	})
	k.Run()
	ji, ok := s.Poll(id)
	if !ok || ji.State != Failed {
		t.Fatalf("job not failed in queue: %+v", ji)
	}
	if ji.Wait < 0 {
		t.Fatalf("negative wait: %v", ji.Wait)
	}
}

// TestSubmitRejectsImpossibleJob: demand beyond every cloud fails fast.
func TestSubmitRejectsImpossibleJob(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 16, CoresPerWorker: 2}); err == nil {
		t.Fatal("16x2-core job accepted on an 8-core federation")
	}
}

// TestRandomPlacementDeterministic: same seed, same choices.
func TestRandomPlacementDeterministic(t *testing.T) {
	run := func() []string {
		k := sim.NewKernel(7)
		b := NewSimBackend(k)
		b.AddCloud("c0", 32, 1, 0.1)
		b.AddCloud("c1", 32, 1, 0.1)
		s := New(b, Config{Placement: RandomPlacement{}})
		s.AddTenant("t", 1)
		ids := submitN(t, s, "t", 8, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 10})
		k.Run()
		out := make([]string, len(ids))
		for i, id := range ids {
			ji, _ := s.Poll(id)
			out[i] = ji.Cloud
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at job %d: %v vs %v", i, a, b)
		}
	}
}

// TestClassifyMatrix covers the pattern taxonomy.
func TestClassifyMatrix(t *testing.T) {
	ring := netmon.Matrix{}
	for i := 0; i < 4; i++ {
		ring.Add(string(rune('a'+i)), string(rune('a'+(i+1)%4)), 100)
	}
	if p := ClassifyMatrix(ring); p != PatternRing {
		t.Errorf("ring classified as %s", p)
	}
	all := netmon.Matrix{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				all.Add(string(rune('a'+i)), string(rune('a'+j)), 100)
			}
		}
	}
	if p := ClassifyMatrix(all); p != PatternAllToAll {
		t.Errorf("all-to-all classified as %s", p)
	}
	hub := netmon.Matrix{}
	for i := 1; i < 6; i++ {
		hub.Add("m", string(rune('a'+i)), 100)
		hub.Add(string(rune('a'+i)), "m", 100)
	}
	if p := ClassifyMatrix(hub); p != PatternMasterWorker {
		t.Errorf("master-worker classified as %s", p)
	}
	if p := ClassifyMatrix(netmon.Matrix{}); p != PatternSparse {
		t.Errorf("empty classified as %s", p)
	}
}

// TestPatternBiasesPlacement: an all-to-all tenant's bandwidth term gets
// boosted, flipping a marginal placement toward the better-connected cloud.
func TestPatternBiasesPlacement(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("data", 2, 1, 0.10) // too small for the job: always remote
	b.AddCloud("big", 64, 1, 0.05)
	b.AddCloud("fat", 32, 1, 0.20)
	b.SetBandwidth("data", "big", 5<<20)
	b.SetBandwidth("data", "fat", 120<<20)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	j := &Job{Spec: JobSpec{Tenant: "t", Workers: 2, CoresPerWorker: 2,
		InputSite: "data", InputBytes: 1 << 30}}
	score := func(name string) float64 {
		clouds := s.B.AppendClouds(nil)
		free := make(map[string]int)
		for _, c := range clouds {
			free[c.Name] = c.FreeCores
		}
		return s.ScorePlan(j, []Member{{Cloud: name, Workers: 2}}, clouds, free).Score
	}
	beforeBig, beforeFat := score("big"), score("fat")
	s.Notify(Event{Kind: EventPatternDetected, Tenant: "t", Pattern: PatternAllToAll})
	afterBig, afterFat := score("big"), score("fat")
	if s.PatternOf("t") != PatternAllToAll {
		t.Fatal("pattern not recorded")
	}
	if afterFat-afterBig <= beforeFat-beforeBig {
		t.Errorf("pattern boost did not widen the bandwidth advantage: before %.3f, after %.3f",
			beforeFat-beforeBig, afterFat-afterBig)
	}
}

// TestExternalDriverRace is the -race stress for external drivers: the
// kernel steps and all external Submit/Poll/Shares traffic serialize
// through Sync, while raw stat reads (atomic counters) hammer from another
// goroutine without it. Any scheduler state an external read touches
// outside Sync, or any stat accessor that is not an atomic read, surfaces
// here under -race.
func TestExternalDriverRace(t *testing.T) {
	k := sim.NewKernel(9)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1, 0.10)
	}
	s := New(b, Config{})
	var ids []string
	s.Sync(func() {
		for ti := 0; ti < 300; ti++ {
			name := fmt.Sprintf("t%03d", ti)
			s.AddTenant(name, 1)
			ids = append(ids, submitN(t, s, name, 2,
				JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: float64(30 + ti%40)})...)
		}
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // external driver: polls and share reads, serialized via Sync
		defer wg.Done()
		i := 0
		for !stop.Load() {
			s.Sync(func() {
				s.Poll(ids[i%len(ids)])
				s.Shares()
			})
			i++
		}
	}()
	go func() { // atomic stat reads need no Sync
		defer wg.Done()
		sink := 0
		for !stop.Load() {
			sink += s.Cycles() + s.Dispatched() + s.Completed() + s.Preemptions()
		}
		_ = sink
	}()
	for at := sim.Time(0); at < 4000*sim.Second; at += 50 * sim.Second {
		end := at + 50*sim.Second
		s.Sync(func() { k.RunUntil(end) })
	}
	stop.Store(true)
	wg.Wait()
	if got := s.Completed(); got != 600 {
		t.Fatalf("completed %d of 600 jobs", got)
	}
}
