package sched

import (
	"fmt"
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

// checkLifecycleIndexes fails the test unless every job is in exactly the
// structures its State implies, the running list is in submission order,
// and the queue counter and both job gauges match the structures.
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
		}
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
