package sched

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// Tests for the incremental scheduler core: finished jobs' visibility, the
// maintained release list, and the blocked-head watermark.

// TestArchiveVisibility: finished jobs stay fully visible through Poll,
// alongside queued and running ones.
func TestArchiveVisibility(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	var ids []string
	for i := 0; i < 3; i++ {
		// 8 cores each: jobs run strictly one at a time.
		id, err := s.Submit(JobSpec{Tenant: "t", Name: fmt.Sprintf("j%d", i),
			Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	k.RunUntil(150 * sim.Second) // first finished, second running, third queued
	wantStates := []State{Done, Running, Queued}
	for i, id := range ids {
		ji, ok := s.Poll(id)
		if !ok {
			t.Fatalf("job %s (state %v expected) invisible to Poll", id, wantStates[i])
		}
		if ji.State != wantStates[i] {
			t.Errorf("job %s state = %v, want %v", id, ji.State, wantStates[i])
		}
	}
	k.Run()
	for _, id := range ids {
		ji, ok := s.Poll(id)
		if !ok || ji.State != Done {
			t.Errorf("archived job %s: ok=%v state=%v, want visible and done", id, ok, ji.State)
		}
		if ji.Finished == 0 || ji.Result.Job == "" {
			t.Errorf("archived job %s lost its outcome: finished=%v result=%q", id, ji.Finished, ji.Result.Job)
		}
	}
	if s.Completed() != 3 {
		t.Errorf("completed=%d, want 3", s.Completed())
	}
}

// TestSharesAcrossArchive: delivered shares integrate finished (archived)
// work from the per-tenant aggregates and live work from the running list —
// the split must not change what Shares reports.
func TestSharesAcrossArchive(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	s.AddTenant("b", 1)
	if _, err := s.Submit(JobSpec{Tenant: "a", Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "b", Workers: 2, CoresPerWorker: 2, EstimateSeconds: 400}); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(200 * sim.Second)
	// a: finished, 4 cores x 100 s = 400 core-s (archived).
	// b: running, 4 cores x 200 s elapsed = 800 core-s.
	shares := s.Shares()
	if got, want := shares["a"], 400.0/1200.0; !closeTo(got, want) {
		t.Errorf("share[a] = %v, want %v (archived work undercounted?)", got, want)
	}
	if got, want := shares["b"], 800.0/1200.0; !closeTo(got, want) {
		t.Errorf("share[b] = %v, want %v (running work undercounted?)", got, want)
	}
	if got := s.DeliveredCoreSeconds("a"); !closeTo(got, 400) {
		t.Errorf("DeliveredCoreSeconds(a) = %v, want 400", got)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// TestWatermarkExactDemand: a completion that frees exactly the blocked
// job's demand must dispatch it at that instant — the watermark may skip
// placement only while the job provably cannot fit.
func TestWatermarkExactDemand(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	short, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 300}); err != nil {
		t.Fatal(err)
	}
	// Blocked: needs the 8 cores the short job holds, freed exactly at t=100.
	blocked, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	si, _ := s.Poll(short)
	bi, _ := s.Poll(blocked)
	if bi.State != Done {
		t.Fatalf("blocked job state = %v, want done", bi.State)
	}
	if bi.Started != si.Finished {
		t.Errorf("blocked job started at %v, want the short job's completion %v (watermark stranded it)",
			bi.Started, si.Finished)
	}
}

// TestWatermarkAccumulatesFrees: a wide blocked job must dispatch once
// several small completions have cumulatively freed its demand, even though
// each individual completion frees less than it needs (the skip condition
// integrates gains; it never compares against a single completion).
func TestWatermarkAccumulatesFrees(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	// Four 4-core jobs finishing at 100/200/300/400 s.
	var ids []string
	for i := 1; i <= 4; i++ {
		id, err := s.Submit(JobSpec{Tenant: "t", Workers: 2, CoresPerWorker: 2,
			EstimateSeconds: float64(100 * i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wide job: 12 cores — needs the first three completions (4+4+4).
	wide, err := s.Submit(JobSpec{Tenant: "t", Workers: 6, CoresPerWorker: 2, EstimateSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	third, _ := s.Poll(ids[2])
	wi, _ := s.Poll(wide)
	if wi.State != Done {
		t.Fatalf("wide job state = %v, want done", wi.State)
	}
	if wi.Started != third.Finished {
		t.Errorf("wide job started at %v, want the third completion %v", wi.Started, third.Finished)
	}
}

// recordingPolicy places nothing: it records every free vector reserve's
// walk asks about, so a test can read the walk's per-instant frees.
type recordingPolicy struct{ frees [][]int }

func (*recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) ProvablyUnplaceable(_ *Job, v *CloudView) bool {
	p.frees = append(p.frees, append([]int(nil), v.free...))
	return true
}

func (*recordingPolicy) Choose(*Scheduler, *Job, *CloudView) Plan { return Plan{} }

// releaseStep is one instant of the release walk: its time and the
// per-cloud cores released by then, indexed like the view.
type releaseStep struct {
	at  sim.Time
	cum []int
}

// oracleSteps rebuilds the release walk from s.running: each running job's
// plan members free their cores at its estimated completion, an estimate at
// or before now counting from now + 1 s. Instants come in time order with
// cumulative per-cloud frees.
func oracleSteps(s *Scheduler, v *CloudView) []releaseStep {
	now := s.K.Now()
	byAt := map[sim.Time][]int{}
	var ats []sim.Time
	for _, j := range s.running {
		if j.State != Running || j.Spec.External() {
			continue
		}
		eta := j.Started + j.estDuration
		if eta <= now {
			eta = now + sim.Second
		}
		if byAt[eta] == nil {
			byAt[eta] = make([]int, len(v.Clouds))
			ats = append(ats, eta)
		}
		for _, m := range j.Plan.Members {
			if p := v.Pos(m.Cloud); p >= 0 {
				byAt[eta][p] += m.Workers * j.coresPerWorker()
			}
		}
	}
	slices.Sort(ats)
	cum := make([]int, len(v.Clouds))
	var out []releaseStep
	for _, at := range ats {
		for p, c := range byAt[at] {
			cum[p] += c
		}
		out = append(out, releaseStep{at: at, cum: append([]int(nil), cum...)})
	}
	return out
}

// checkReleaseReaders compares the release list's two readers with the
// rebuild: reserve must walk exactly the rebuild's instants, with the same
// cumulative per-cloud frees at each, and sumReleasesAt must return those
// frees at each instant. It returns the number of instants and how many
// running jobs are overdue.
func checkReleaseReaders(t *testing.T, s *Scheduler) (instants, overdue int) {
	t.Helper()
	var v CloudView
	v.Reset(s.B.AppendClouds(nil))
	clear(v.free) // the walk's frees are then the release sums alone
	want := oracleSteps(s, &v)
	rec := &recordingPolicy{}
	placement := s.cfg.Placement
	s.cfg.Placement = rec
	_, ok := s.reserve(&Job{Spec: JobSpec{Workers: 1}}, &v)
	s.cfg.Placement = placement
	if ok {
		t.Fatal("reserve found a plan under a policy that never places")
	}
	now := s.K.Now()
	if len(rec.frees) != len(want) {
		t.Fatalf("at %v: reserve walked %d instants, the rebuild has %d", now, len(rec.frees), len(want))
	}
	for i, st := range want {
		if !slices.Equal(rec.frees[i], st.cum) {
			t.Errorf("at %v: reserve's frees at instant %v = %v, rebuild %v", now, st.at, rec.frees[i], st.cum)
		}
		s.sumReleasesAt(&v, st.at)
		if !slices.Equal(s.relSumAtResv, st.cum) {
			t.Errorf("at %v: sumReleasesAt(%v) = %v, rebuild %v", now, st.at, s.relSumAtResv, st.cum)
		}
	}
	for _, j := range s.running {
		if j.Started+j.estDuration <= now {
			overdue++
		}
	}
	return len(want), overdue
}

// TestReleaseListMatchesRebuild: under churn (staggered arrivals, spanning
// jobs, completions, runs that overrun their estimates) the maintained
// release list must feed reserve and sumReleasesAt exactly what a rebuild
// from the running jobs gives, at every checkpoint.
func TestReleaseListMatchesRebuild(t *testing.T) {
	k := sim.NewKernel(7)
	b := NewSimBackend(k)
	for c := 0; c < 3; c++ {
		b.AddCloud(fmt.Sprintf("c%d", c), 16, 1.0+0.5*float64(c), 0.10)
	}
	b.UseLogNormalOverrun(0, 0.5)
	s := New(b, Config{})
	s.AddTenant("a", 2)
	s.AddTenant("b", 1)
	for i := 0; i < 30; i++ {
		i := i
		k.At(sim.Time(i)*13*sim.Second, func() {
			spec := JobSpec{Tenant: []string{"a", "b"}[i%2], Workers: 2 + i%4,
				CoresPerWorker: 2, EstimateSeconds: float64(40 + 17*(i%5))}
			if i%6 == 0 {
				spec.Workers = 12 // 24 cores: wider than any 16-core cloud, spans
			}
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	checks, withOverdue := 0, 0
	for at := sim.Time(20) * sim.Second; at < 600*sim.Second; at += 37 * sim.Second {
		k.At(at, func() {
			if _, overdue := checkReleaseReaders(t, s); overdue > 0 {
				withOverdue++
			}
			checks++
		})
	}
	k.Run()
	if checks == 0 || withOverdue == 0 || s.Completed() != 30 {
		t.Fatalf("checks=%d (with overdue jobs %d) completed=%d, want >0, >0 and 30",
			checks, withOverdue, s.Completed())
	}
}

// TestSnapshotReleasesOverdueMerge: estimates that have blown count from
// now + 1 s, together with the entries genuinely due then and after one due
// between now and now + 1 s — in reserve's walk and in sumReleasesAt alike.
func TestSnapshotReleasesOverdueMerge(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 64, 1, 0.10)
	b.AddCloud("c1", 64, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	mk := func(id string, started, est sim.Time, members ...Member) *Job {
		seq, err := strconv.Atoi(id[1:])
		if err != nil {
			t.Fatalf("test job id %q must be J<seq>", id)
		}
		j := &Job{ID: id, seq: seq, Spec: JobSpec{Tenant: "t", Workers: 1}, State: Running,
			Started: started, estDuration: est, dispatched: true,
			Plan: Plan{Members: members}}
		s.jobs[id] = j
		s.addRunning(j)
		s.insertReleases(j)
		return j
	}
	// Advance the clock to t=100s so earlier ETAs are overdue.
	k.At(100*sim.Second, func() {})
	k.Run()
	// Overdue: J10 (eta 50s, spanning) and J7 (eta 80s) count at 101s,
	// with J3's genuine 101s entry and after J2's genuine 100.5s one.
	mk("J10", 0, 50*sim.Second, Member{Cloud: "c1", Workers: 2}, Member{Cloud: "c0", Workers: 1})
	mk("J7", 0, 80*sim.Second, Member{Cloud: "c0", Workers: 3})
	mk("J2", 0, 100*sim.Second+500*sim.Millisecond, Member{Cloud: "c0", Workers: 4})
	mk("J3", 0, 101*sim.Second, Member{Cloud: "c1", Workers: 5})
	mk("J9", 0, 200*sim.Second, Member{Cloud: "c0", Workers: 6})
	if instants, overdue := checkReleaseReaders(t, s); instants != 3 || overdue != 2 {
		t.Fatalf("walk checked %d instants with %d overdue jobs, want 3 (100.5s, 101s, 200s) and 2",
			instants, overdue)
	}
}

// TestReleaseSnapshotRefreshAfterFailedReserve: when the head job's
// reservation attempt fails (policy can never place it) and a later job
// dispatches in the same cycle, the NEXT blocked job's reserve() must see
// the dispatched job's release — missing it would hand it a wrong-cloud
// reservation and let a long backfill job slip in front of it.
func TestReleaseSnapshotRefreshAfterFailedReserve(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 10, 1, 0.10)
	b.AddCloud("c1", 12, 1, 0.10)
	s := New(b, Config{Placement: RandomPlacement{}})
	s.AddTenant("t", 1)
	submit := func(workers int, est float64) string {
		id, err := s.Submit(JobSpec{Tenant: "t", Workers: workers, CoresPerWorker: 1, EstimateSeconds: est})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(12, 1000) // R: fills c1 (only cloud with 12 free) until t=1000
	w := submit(16, 50)
	// W: wider than any single cloud — Random never places it, its
	// reservation attempt fails every cycle, and it stays queued.
	a := submit(8, 100)  // A: fits only c0 (leaves 2 free), releases at t=100
	bl := submit(10, 50) // B: blocked; must reserve c0 at A's release
	c := submit(2, 5000) // C: fits c0's spare 2 — would delay B's reserved start
	k.Run()
	if wi, _ := s.Poll(w); wi.State != Queued {
		t.Fatalf("wide job state = %v, want queued forever under the single-cloud policy", wi.State)
	}
	ai, _ := s.Poll(a)
	bi, _ := s.Poll(bl)
	ci, _ := s.Poll(c)
	if bi.Started != ai.Finished {
		t.Errorf("blocked job started at %v, want %v (A's release; stale reservation let something delay it)",
			bi.Started, ai.Finished)
	}
	if ci.Started < bi.Started {
		t.Errorf("long backfill job started at %v, before the reserved job's start %v — the "+
			"reservation walk missed A's dispatch and reserved the wrong cloud", ci.Started, bi.Started)
	}
}

// TestFitsFederationCacheInvalidation: the cached federation-wide gang
// slots must follow cloud resizes — a job that no longer fits is rejected,
// and added capacity admits wider jobs.
func TestFitsFederationCacheInvalidation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	c := b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 16, CoresPerWorker: 1, EstimateSeconds: 10}); err != nil {
		t.Fatalf("16-core job rejected on a 16-core federation: %v", err)
	}
	c.SetTotal(8)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 16, CoresPerWorker: 1, EstimateSeconds: 10}); err == nil {
		t.Fatal("16-core job admitted after the federation shrank to 8 cores (stale slot cache)")
	}
	c.SetTotal(64)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 40, CoresPerWorker: 1, EstimateSeconds: 10}); err != nil {
		t.Fatalf("40-core job rejected after growth to 64 cores (stale slot cache): %v", err)
	}
}
