package sched

import (
	"testing"

	"repro/internal/capacity"
	"repro/internal/sim"
)

// Tests for the degraded-mode scheduling paths: outage requeue with
// progress credit, flap quarantine and readmission, transient launch
// retry/backoff, and the kill-and-recover contract (journal replay rebuilds
// the live ledger byte for byte and the resumed run completes every job).

// failAt schedules a full outage and its restore on the kernel: the ledger
// transition first, then the scheduler notification — the ordering every
// backend follows.
func failAt(t *testing.T, k *sim.Kernel, b *SimBackend, s *Scheduler, cloud string, at, dur sim.Time) {
	t.Helper()
	k.At(at, func() {
		if _, err := b.FailCloud(cloud); err != nil {
			t.Errorf("fail %s: %v", cloud, err)
		}
		s.Notify(Event{Kind: EventCloudFailed, Cloud: cloud})
	})
	k.At(at+dur, func() {
		if err := b.RestoreCloud(cloud); err != nil {
			t.Errorf("restore %s: %v", cloud, err)
		}
		s.Notify(Event{Kind: EventCloudRestored, Cloud: cloud})
	})
}

// TestOutageRequeueAndRecovery: a full crash tears the cloud's running gangs
// down through the preemption machinery, requeues them with progress credit
// — without charging the jobs a preemption — and the restored cloud runs
// them to completion.
func TestOutageRequeueAndRecovery(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	s := New(b, Config{})
	s.Start()
	ids := submitN(t, s, "t1", 2, JobSpec{Workers: 4, CoresPerWorker: 1, EstimateSeconds: 100})
	failAt(t, k, b, s, "a", 50*sim.Second, 150*sim.Second)
	k.RunUntil(60 * sim.Second)
	if !s.CloudDown("a") {
		t.Fatal("cloud not marked down after the outage event")
	}
	if got := s.OutageRequeues(); got != 2 {
		t.Fatalf("OutageRequeues=%d, want 2 (both running gangs lived on a)", got)
	}
	for _, id := range ids {
		ji, _ := s.Poll(id)
		if ji.State != Queued {
			t.Fatalf("job %s state=%v mid-outage, want Queued (requeued, not failed)", id, ji.State)
		}
	}
	k.Run()
	if s.Outages() != 1 || s.Restores() != 1 {
		t.Fatalf("outages=%d restores=%d, want 1/1", s.Outages(), s.Restores())
	}
	if s.CloudDown("a") {
		t.Fatal("cloud still marked down after restore")
	}
	for _, id := range ids {
		ji, _ := s.Poll(id)
		if ji.State != Done {
			t.Fatalf("job %s state=%v after restore, want Done", id, ji.State)
		}
		// An outage is not the job's fault: its preemption budget is intact.
		if ji.Preemptions != 0 {
			t.Fatalf("job %s charged %d preemptions for an outage", id, ji.Preemptions)
		}
		// Requeued at t=50 with 50/100 of the work done: the credited rerun
		// finishes well before a from-scratch one would (200+100).
		if ji.Finished >= 290*sim.Second {
			t.Fatalf("job %s finished at %v; progress credit not applied", id, ji.Finished)
		}
	}
	if s.Preemptions() != 0 {
		t.Fatalf("scheduler counted %d preemptions for outage requeues", s.Preemptions())
	}
}

// TestNaiveFaultModeZeroCredit: the E14 baseline requeues outage victims
// with no progress credit — their reruns start from scratch.
func TestNaiveFaultModeZeroCredit(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	s := New(b, Config{NaiveFaultMode: true})
	s.Start()
	ids := submitN(t, s, "t1", 1, JobSpec{Workers: 4, CoresPerWorker: 1, EstimateSeconds: 100})
	failAt(t, k, b, s, "a", 50*sim.Second, 150*sim.Second)
	k.Run()
	ji, _ := s.Poll(ids[0])
	if ji.State != Done {
		t.Fatalf("job state=%v, want Done", ji.State)
	}
	// Redispatched at t=200 with zero credit: the full 100 s run again.
	if ji.Finished < 295*sim.Second {
		t.Fatalf("job finished at %v; naive mode should have discarded progress", ji.Finished)
	}
}

// TestFlappingCloudQuarantined: a cloud that crashes twice inside the flap
// window is quarantined at its second restore — hidden from placement until
// the jittered backoff lapses — and then readmitted with a clean slate.
func TestFlappingCloudQuarantined(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	b.AddCloud("b", 16, 1, 0.08)
	s := New(b, Config{})
	s.Start()
	// Two crash/restore cycles on b inside the 10-minute flap window.
	failAt(t, k, b, s, "b", 10*sim.Second, 20*sim.Second)
	failAt(t, k, b, s, "b", 60*sim.Second, 20*sim.Second)
	k.RunUntil(90 * sim.Second)
	if s.Quarantines() != 1 {
		t.Fatalf("Quarantines=%d, want 1 (second restore crossed the flap threshold)", s.Quarantines())
	}
	if !s.Quarantined("b") {
		t.Fatal("flapping cloud not quarantined after its second restore")
	}
	// A job submitted now must land on a: b is healthy in the ledger but
	// hidden from the cycle snapshot.
	ids := submitN(t, s, "t1", 1, JobSpec{Workers: 2, CoresPerWorker: 1, EstimateSeconds: 30})
	k.RunUntil(95 * sim.Second)
	ji, _ := s.Poll(ids[0])
	if ji.State != Running || ji.Cloud != "a" {
		t.Fatalf("job state=%v cloud=%q under quarantine, want Running on a", ji.State, ji.Cloud)
	}
	// Base quarantine is 60 s, jittered to at most 90 s: by t=180 the
	// pruned readmission has fired (the lapse schedules its own kick).
	k.RunUntil(180 * sim.Second)
	if s.Quarantined("b") {
		t.Fatal("quarantine did not lapse")
	}
	if s.Readmissions() != 1 {
		t.Fatalf("Readmissions=%d, want 1", s.Readmissions())
	}
	k.Run()
}

// TestTransientLaunchRetry: a launch failing with ErrTransientLaunch is
// requeued behind a jittered backoff and retried, bounded by LaunchRetries;
// within the budget the job completes, past it the job fails.
func TestTransientLaunchRetry(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	s := New(b, Config{})
	s.Start()
	b.FailNextLaunches("a", 2)
	ids := submitN(t, s, "t1", 1, JobSpec{Workers: 2, CoresPerWorker: 1, EstimateSeconds: 30})
	k.Run()
	ji, _ := s.Poll(ids[0])
	if ji.State != Done {
		t.Fatalf("job state=%v after transient faults, want Done", ji.State)
	}
	if got := s.LaunchRetries(); got != 2 {
		t.Fatalf("LaunchRetries=%d, want 2", got)
	}
	if got := s.Dispatched(); got != 1 {
		t.Fatalf("Dispatched=%d, want 1: a failed launch is not a dispatch", got)
	}
	// The retries are backoff-delayed, not same-instant churn.
	if ji.Started == 0 {
		t.Fatal("job started at t=0 despite two faulted launches")
	}
}

func TestTransientLaunchRetriesExhausted(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	s := New(b, Config{})
	s.Start()
	b.FailNextLaunches("a", 10)
	ids := submitN(t, s, "t1", 1, JobSpec{Workers: 2, CoresPerWorker: 1, EstimateSeconds: 30})
	k.Run()
	ji, _ := s.Poll(ids[0])
	if ji.State != Failed {
		t.Fatalf("job state=%v with faults past the retry budget, want Failed", ji.State)
	}
	if got := s.LaunchRetries(); got != 3 {
		t.Fatalf("LaunchRetries=%d, want the default budget of 3", got)
	}
	if got := s.Dispatched(); got != 0 {
		t.Fatalf("Dispatched=%d for a job that never ran, want 0", got)
	}
}

// TestOutageRequeueRenewsLaunchRetryBudget: a job that used part of its
// launch retry budget, ran, and was then torn off a failed cloud gets the
// whole budget again for its next launch. A launch that succeeds does not
// renew the budget: a backend may report the deploy failure after Launch
// returns, so only the requeue of a job that ran does.
func TestOutageRequeueRenewsLaunchRetryBudget(t *testing.T) {
	for _, tc := range []struct {
		strikes int
		want    State
	}{
		{LaunchRetryBudget, Done},
		{LaunchRetryBudget + 1, Failed},
	} {
		k := sim.NewKernel(1)
		b := NewSimBackend(k)
		b.AddCloud("a", 16, 1, 0.10)
		s := New(b, Config{})
		s.Start()
		// The first launch burns all but one of the budget's retries, then
		// the job runs until the outage requeues it.
		b.FailNextLaunches("a", LaunchRetryBudget-1)
		id := submitN(t, s, "t1", 1, JobSpec{Workers: 2, CoresPerWorker: 1, EstimateSeconds: 1000})[0]
		failAt(t, k, b, s, "a", 100*sim.Second, 50*sim.Second)
		// Armed while the cloud is down, so the relaunch after the restore
		// meets every strike.
		k.At(120*sim.Second, func() { b.FailNextLaunches("a", tc.strikes) })
		k.Run()
		ji, _ := s.Poll(id)
		if s.OutageRequeues() != 1 {
			t.Fatalf("%d strikes: OutageRequeues=%d, want 1 (the outage hit the running job)", tc.strikes, s.OutageRequeues())
		}
		if ji.State != tc.want {
			t.Fatalf("%d strikes after the outage: job state=%v err=%v, want %v", tc.strikes, ji.State, ji.Err, tc.want)
		}
		if got, want := s.LaunchRetries(), 2*LaunchRetryBudget-1; got != want {
			t.Fatalf("%d strikes: LaunchRetries=%d, want %d", tc.strikes, got, want)
		}
	}
}

// TestKillAndRecover is the crash-recovery acceptance test: mid-flight —
// running gangs, queued jobs, an outage in the books — the ledger journal's
// replay must rebuild the live capacity state byte for byte, and the run,
// resumed on the live ledger, must complete every job.
func TestKillAndRecover(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	jrn := capacity.NewJournal()
	b.Ledger().Journal(jrn) // before AddCloud: the journal must see every transition
	b.AddCloud("a", 8, 1, 0.10)
	b.AddCloud("b", 8, 1, 0.08)
	s := New(b, Config{})
	s.Start()
	var ids []string
	ids = append(ids, submitN(t, s, "t1", 4, JobSpec{Workers: 4, CoresPerWorker: 1, EstimateSeconds: 100})...)
	ids = append(ids, submitN(t, s, "t2", 4, JobSpec{Workers: 6, CoresPerWorker: 1, EstimateSeconds: 80})...)
	failAt(t, k, b, s, "b", 40*sim.Second, 100*sim.Second)

	checkpoint := func(at sim.Time) {
		k.At(at, func() {
			rl, err := capacity.Replay(jrn.Recs())
			if err != nil {
				t.Errorf("t=%v: journal replay: %v", at, err)
				return
			}
			live, rec := string(b.Ledger().Snapshot()), string(rl.Snapshot())
			if live != rec {
				t.Errorf("t=%v: recovered ledger diverges from live:\nlive:\n%s\nrecovered:\n%s",
					at, live, rec)
			}
		})
	}
	checkpoint(30 * sim.Second)  // steady state: running + queued
	checkpoint(60 * sim.Second)  // mid-outage: evictions journaled
	checkpoint(200 * sim.Second) // post-restore

	k.Run()
	for _, id := range ids {
		ji, _ := s.Poll(id)
		if ji.State != Done {
			t.Fatalf("job %s state=%v after recovery checkpoints, want Done", id, ji.State)
		}
	}
	// Final equivalence once the run has drained.
	rl, err := capacity.Replay(jrn.Recs())
	if err != nil {
		t.Fatal(err)
	}
	if live, rec := string(b.Ledger().Snapshot()), string(rl.Snapshot()); live != rec {
		t.Fatalf("drained ledger diverges from journal replay:\nlive:\n%s\nrecovered:\n%s", live, rec)
	}
}

// quarantineGuard is a SimBackend whose Launch fails the test when any plan
// member is a cloud the scheduler has quarantined.
type quarantineGuard struct {
	*SimBackend
	t *testing.T
	s *Scheduler
}

func (g *quarantineGuard) Launch(j *Job, plan Plan, onDone func(*Job, Outcome)) (Handle, error) {
	for _, m := range plan.Members {
		if g.s.Quarantined(m.Cloud) {
			g.t.Errorf("t=%v: %s (%s) launched on quarantined cloud %s, plan %s",
				g.s.K.Now(), j.ID, j.Spec.Name, m.Cloud, plan)
		}
	}
	return g.SimBackend.Launch(j, plan, onDone)
}

// TestPreemptionHonoursQuarantine: an eviction re-snapshots the clouds
// mid-cycle, and that snapshot must hide quarantined clouds just as the
// cycle's own does. Cloud b flaps into a long quarantine; then a head job
// blocked on a behind an overrunning backfill evicts it. With b visible the
// head would start on b, the cheaper of two equally free clouds.
func TestPreemptionHonoursQuarantine(t *testing.T) {
	k := sim.NewKernel(1)
	sb := NewSimBackend(k)
	sb.AddCloud("a", 16, 1, 0.10)
	sb.AddCloud("b", 32, 1, 0.08)
	sb.Overrun = func(j *Job) float64 {
		if j.Spec.Name == "liar" {
			return 4
		}
		return 1
	}
	g := &quarantineGuard{SimBackend: sb, t: t}
	s := New(g, Config{EnablePreemption: true})
	g.s = s
	s.Start()
	// Six crashes inside the flap window: the last restore quarantines b
	// for at least 450 s (the 15-minute cap, jittered down by half).
	for i := 0; i < 6; i++ {
		failAt(t, k, sb, s, "b", sim.Time(1+2*i)*sim.Second, sim.Second)
	}
	var head, liar string
	k.At(20*sim.Second, func() {
		if !s.Quarantined("b") {
			t.Fatal("b not quarantined after flapping")
		}
		submitN(t, s, "t", 1, JobSpec{Name: "hold", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
		head = submitN(t, s, "t", 1, JobSpec{Name: "head", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})[0]
		liar = submitN(t, s, "t", 1, JobSpec{Name: "liar", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 80})[0]
	})
	k.Run()
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if hi.State != Done || li.State != Done {
		t.Fatalf("states: head=%v liar=%v, want both done", hi.State, li.State)
	}
	if li.Preemptions != 1 {
		t.Fatalf("liar preempted %d times, want 1: the eviction path did not run", li.Preemptions)
	}
	if hi.Started >= 470*sim.Second {
		t.Fatalf("head started at %v, after b's quarantine could have lapsed", hi.Started)
	}
	if hi.Cloud != "a" {
		t.Errorf("head ran on %s, want a", hi.Cloud)
	}
}
