package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestLifecycleIndexes: every structure that mirrors a job's State agrees
// with it after every kernel step of a small, churny run — preemption,
// overrunning estimates, an outage and restore, a burst of transient
// launch failures, and external jobs. A queued job sits in exactly one
// tenant queue; a running one is in the running list and, unless external,
// has one release entry per plan member; a finished one is in none of them.
// Every queue entry carries its job's gang shape.
func TestLifecycleIndexes(t *testing.T) {
	k := sim.NewKernel(3)
	b := NewSimBackend(k)
	for i := 0; i < 6; i++ {
		b.AddCloud(fmt.Sprintf("c%d", i), 16, 1, 0.10+0.01*float64(i))
	}
	b.UseLogNormalOverrun(0, 0.6)
	s := New(b, Config{EnablePreemption: true})
	s.Start()
	rng := rand.New(rand.NewSource(11))
	widths := []struct{ workers, cpw int }{{1, 1}, {2, 1}, {4, 2}, {8, 1}, {3, 4}, {12, 2}}
	for n := 0; n < 12; n++ {
		tenant := fmt.Sprintf("t%02d", n)
		s.AddTenant(tenant, float64(1+n%3))
		for i := 0; i < 8; i++ {
			w := widths[rng.Intn(len(widths))]
			spec := JobSpec{Tenant: tenant, Name: fmt.Sprintf("%s-%d", tenant, i),
				Workers: w.workers, CoresPerWorker: w.cpw, EstimateSeconds: float64(30 + rng.Intn(300))}
			k.At(sim.Time(rng.Intn(600))*sim.Second, func() {
				if _, err := s.Submit(spec); err != nil {
					t.Errorf("submit %s: %v", spec.Name, err)
				}
			})
		}
	}
	for i, at := range []sim.Time{40 * sim.Second, 250 * sim.Second} {
		spec := JobSpec{Tenant: "t00", Name: fmt.Sprintf("ext-%d", i), Workers: 2, CoresPerWorker: 2,
			EstimateSeconds: 90, Run: func(done func(error)) { k.Schedule(90*sim.Second, func() { done(nil) }) }}
		k.At(at, func() {
			if _, err := s.Submit(spec); err != nil {
				t.Errorf("submit %s: %v", spec.Name, err)
			}
		})
	}
	k.At(120*sim.Second, func() { b.FailNextLaunches("c1", 4) })
	failAt(t, k, b, s, "c3", 200*sim.Second, 150*sim.Second)

	steps := 0
	for k.Step() {
		steps++
		checkLifecycleIndexes(t, s, steps)
		if t.Failed() {
			return
		}
	}
	if s.Completed() != 98 || s.Failures() != 0 {
		t.Fatalf("completed=%d failures=%d, want 98/0", s.Completed(), s.Failures())
	}
	if s.Preemptions() == 0 || s.LaunchRetries() == 0 || s.OutageRequeues() == 0 {
		t.Fatalf("preemptions=%d launch retries=%d outage requeues=%d: the run must exercise every requeue path",
			s.Preemptions(), s.LaunchRetries(), s.OutageRequeues())
	}
	t.Logf("%d steps, %d preemptions, %d launch retries, %d outage requeues",
		steps, s.Preemptions(), s.LaunchRetries(), s.OutageRequeues())
}

// TestExternalEntryBehindReservation: an external job takes no capacity,
// so its queue entry has the fixed shape w = 0, cpw = 1 whatever its spec
// says. Behind a held reservation it passes the slot test and dispatches,
// even when its CoresPerWorker does not fit in 32 bits and an entry of
// another worker size precedes it.
func TestExternalEntryBehindReservation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	shift := 32 // a variable shift builds where int has 32 bits too
	var ids []string
	for _, spec := range []JobSpec{
		{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 100}, // leaves 2 of 8 cores free
		{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 50},  // the head: reserves
		{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 50},  // fails the slot test
		{Workers: 2, CoresPerWorker: 1 << shift, EstimateSeconds: 10,
			Run: func(done func(error)) { k.Schedule(10*sim.Second, func() { done(nil) }) }},
	} {
		spec.Tenant = "t"
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, id)
	}
	steps, held := 0, false
	for k.Step() {
		steps++
		checkLifecycleIndexes(t, s, steps)
		if t.Failed() {
			return
		}
		if k.Now() == 0 && s.resv != nil {
			held = true
			if ext := s.jobByID(ids[3]); ext.State != Running {
				t.Fatalf("external job is %v behind the reservation, want Running", ext.State)
			}
		}
	}
	if !held || s.Completed() != 4 {
		t.Fatalf("reservation held at 0: %v, completed=%d; want true and 4", held, s.Completed())
	}
}

// TestLifecycleIndexesBehindReservation runs TestLifecycleIndexes' checks
// on a small federation that a wide head keeps blocked: behind its held
// reservation the tenant skip and the entry bound fire, among entries of 1,
// 2 and 4 cores per worker, an external job, a burst of transient launch
// failures and preemptions that requeue their victims with progress credit.
func TestLifecycleIndexesBehindReservation(t *testing.T) {
	k := sim.NewKernel(5)
	b := NewSimBackend(k)
	for i, cores := range []int{16, 16, 24} {
		b.AddCloud(fmt.Sprintf("c%d", i), cores, 1, 0.10+0.01*float64(i))
	}
	b.UseLogNormalOverrun(0, 0.6)
	s := New(b, Config{EnablePreemption: true})
	s.Start()
	rng := rand.New(rand.NewSource(7))
	shapes := map[string][]struct{ workers, cpw int }{
		"a": {{1, 1}, {3, 1}, {6, 1}, {20, 1}},
		"b": {{2, 2}, {4, 2}, {6, 2}, {12, 2}},
		"c": {{2, 4}, {3, 4}, {4, 4}, {8, 4}},
	}
	jobs := 0
	for _, tenant := range []string{"a", "b", "c"} {
		for i := 0; i < 20; i++ {
			w := shapes[tenant][rng.Intn(4)]
			spec := JobSpec{Tenant: tenant, Name: fmt.Sprintf("%s-%d", tenant, i),
				Workers: w.workers, CoresPerWorker: w.cpw, EstimateSeconds: float64(20 + rng.Intn(400))}
			k.At(sim.Time(rng.Intn(900))*sim.Second, func() {
				if _, err := s.Submit(spec); err != nil {
					t.Errorf("submit %s: %v", spec.Name, err)
				}
			})
			jobs++
		}
	}
	ext := JobSpec{Tenant: "b", Name: "ext", Workers: 4, CoresPerWorker: 4, EstimateSeconds: 60,
		Run: func(done func(error)) { k.Schedule(60*sim.Second, func() { done(nil) }) }}
	k.At(300*sim.Second, func() {
		if _, err := s.Submit(ext); err != nil {
			t.Errorf("submit ext: %v", err)
		}
	})
	jobs++
	k.At(200*sim.Second, func() { b.FailNextLaunches("c2", 4) })

	steps, held := 0, 0
	for k.Step() {
		steps++
		if s.resv != nil {
			held++
		}
		checkLifecycleIndexes(t, s, steps)
		if t.Failed() {
			return
		}
	}
	credited := 0
	for _, j := range s.jobs {
		if j != nil && j.creditFrac > 0 {
			credited++
		}
	}
	if s.Completed() != jobs || s.Failures() != 0 {
		t.Fatalf("completed=%d failures=%d, want %d/0", s.Completed(), s.Failures(), jobs)
	}
	if held == 0 || s.tenantSkips == 0 || credited == 0 || s.LaunchRetries() == 0 {
		t.Fatalf("steps with a held reservation=%d tenant skips=%d jobs with progress credit=%d launch retries=%d: the run must exercise each",
			held, s.tenantSkips, credited, s.LaunchRetries())
	}
	t.Logf("%d steps (%d with a held reservation), %d tenant skips, %d preemptions, %d jobs with progress credit, %d launch retries",
		steps, held, s.tenantSkips, s.Preemptions(), credited, s.LaunchRetries())
}

// checkLifecycleIndexes fails the test unless every job is in exactly the
// structures its State implies, every queue entry's w and cpw match its
// job's workers and cores per worker (w = 0 and cpw = 1 for an external
// job) and its est matches the job's estimate bit for bit, every tenant's
// queue summary that is not stale matches its queue, the running list is
// in submission order, and the queue counter and both job gauges match the
// structures.
func checkLifecycleIndexes(t *testing.T, s *Scheduler, step int) {
	t.Helper()
	inQueue := make(map[*Job]int)
	queued := 0
	for _, tn := range s.tenantList {
		for _, e := range tn.queue {
			inQueue[e.job]++
			if e.job.Spec.Tenant != tn.Name {
				t.Errorf("step %d: %s queued under tenant %s", step, e.job.ID, tn.Name)
			}
			w, cpw := e.job.workers(), e.job.coresPerWorker()
			if e.job.Spec.External() {
				w, cpw = 0, 1
			}
			if int(e.w) != w || int(e.cpw) != cpw {
				t.Errorf("step %d: %s's queue entry has w=%d cpw=%d, want %d and %d",
					step, e.job.ID, e.w, e.cpw, w, cpw)
			}
			if est := e.job.estimate(); math.Float64bits(e.est) != math.Float64bits(est) {
				t.Errorf("step %d: %s's queue entry has est=%v, its job estimates %v", step, e.job.ID, e.est, est)
			}
		}
		checkQueueSummary(t, tn, step)
		queued += len(tn.queue)
	}
	inRunning := make(map[*Job]int)
	for i, j := range s.running {
		inRunning[j]++
		if i > 0 && s.running[i-1].seq >= j.seq {
			t.Errorf("step %d: running list out of submission order at %s", step, j.ID)
		}
	}
	releases := make(map[int]int)
	for _, r := range s.releases {
		releases[r.seq]++
	}
	wantReleases := 0
	for _, j := range s.jobs {
		if j == nil {
			continue // a rejected submission
		}
		wantQ, wantR, wantRel := 0, 0, 0
		switch j.State {
		case Queued:
			wantQ = 1
		case Running:
			wantR = 1
			if !j.Spec.External() {
				wantRel = len(j.Plan.Members)
			}
		}
		wantReleases += wantRel
		if inQueue[j] != wantQ || inRunning[j] != wantR || releases[j.seq] != wantRel {
			t.Errorf("step %d: %s is %v but sits in %d queues, %d running entries and %d release entries; want %d, %d, %d",
				step, j.ID, j.State, inQueue[j], inRunning[j], releases[j.seq], wantQ, wantR, wantRel)
		}
	}
	if len(s.releases) != wantReleases {
		t.Errorf("step %d: %d release entries, want %d", step, len(s.releases), wantReleases)
	}
	if s.nQueued != queued || int(s.m.queuedJobs.Value()) != queued {
		t.Errorf("step %d: nQueued=%d queued gauge=%v, want %d", step, s.nQueued, s.m.queuedJobs.Value(), queued)
	}
	if int(s.m.runningJobs.Value()) != len(s.running) {
		t.Errorf("step %d: running gauge=%v, want %d", step, s.m.runningJobs.Value(), len(s.running))
	}
}

// checkQueueSummary fails the test when the tenant's queue summary is not
// stale and differs from a recomputation: the smallest entry demand w·cpw
// and how many entries have it (no minimum for an empty queue).
func checkQueueSummary(t *testing.T, tn *Tenant, step int) {
	t.Helper()
	if tn.minStale {
		return
	}
	minD, n := 0, 0
	for _, e := range tn.queue {
		switch d := int(e.w) * int(e.cpw); {
		case n == 0 || d < minD:
			minD, n = d, 1
		case d == minD:
			n++
		}
	}
	if tn.minCount != n || n > 0 && tn.minDemand != minD {
		t.Errorf("step %d: tenant %s's queue summary says %d entries at demand %d; the queue has %d at %d",
			step, tn.Name, tn.minCount, tn.minDemand, n, minD)
	}
}
