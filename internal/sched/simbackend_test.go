package sched

import (
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// TestSimBackendRunsDispatchEstimate: SimBackend runs a job for exactly the
// plan-level estimate dispatch computed, scaled by the overrun factor — on
// a spanning plan over clouds of different speeds, whose input sits on a
// non-member cloud and whose shuffle crosses sites, so every term of
// planEstimateSeconds is in play. Replay traces carry no input site or MR
// payload, so no golden pins the input and shuffle terms.
func TestSimBackendRunsDispatchEstimate(t *testing.T) {
	for _, f := range []float64{0, 1.75} {
		k := sim.NewKernel(3)
		b := NewSimBackend(k)
		b.AddCloud("fast", 8, 2.0, 0.10)
		b.AddCloud("slow", 8, 0.8, 0.05)
		b.AddCloud("store", 0, 1, 0.10) // holds the input, no cores to run on
		b.SetBandwidth("store", "fast", 40<<20)
		b.SetBandwidth("store", "slow", 20<<20)
		b.SetBandwidth("fast", "slow", 10<<20)
		if f > 0 {
			b.Overrun = func(*Job) float64 { return f }
		}
		s := New(b, Config{})
		s.AddTenant("t", 1)
		id, err := s.Submit(JobSpec{
			Tenant: "t", Workers: 12, CoresPerWorker: 1, EstimateSeconds: 300,
			InputSite: "store", InputBytes: 1 << 30,
			MR: mapreduce.Job{NumMaps: 24, NumReduces: 4, ShuffleBytesPerMapPerReduce: 8 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		ji, _ := s.Poll(id)
		j := s.jobByID(id)
		if ji.State != Done {
			t.Fatalf("overrun %v: job %v, err %v", f, ji.State, ji.Err)
		}
		if !j.Plan.Spanning() || j.Plan.WorkersOn("store") != 0 {
			t.Fatalf("overrun %v: plan %v, want one spanning fast and slow without the input site", f, j.Plan)
		}
		if crossShuffleSeconds(b, j, j.Plan.Members) <= 0 {
			t.Fatalf("overrun %v: plan %v has no cross-site shuffle term", f, j.Plan)
		}
		var v CloudView
		v.Reset(b.AppendClouds(nil))
		est := planEstimateSeconds(b, j, j.Plan, &v)
		want := ji.Started + sim.FromSeconds(est)
		if f > 0 {
			want = ji.Started + sim.FromSeconds(est*f)
		}
		if ji.Finished != want {
			t.Fatalf("overrun %v: finished at %v, want %v (started %v, estimate %.6f s)",
				f, ji.Finished, want, ji.Started, est)
		}
	}
}
