package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestScrapeLockGuardsLiveMetrics mirrors the live /metrics server of
// examples/scheduler and skyctl sched: one goroutine scrapes /metrics and
// /debug/trace in a loop while the kernel steps in one-virtual-second
// chunks under the registry's scrape lock. The ledger, the scheduler and
// the clouds take no lock of their own, so under -race this checks that the
// scrape lock alone keeps the collectors off the model while it steps.
func TestScrapeLockGuardsLiveMetrics(t *testing.T) {
	tr := obs.NewTracer(1024)
	f, s := schedFederation(t, 42, 2, 2, sched.Config{Trace: tr})
	var mu sync.Mutex
	s.Obs().SetScrapeLock(&mu)
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Obs().Handler())
	mux.Handle("/debug/trace", tr.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	job := mapreduce.Job{Name: "blast", NumMaps: 8, NumReduces: 1, MapCPU: 10, ReduceCPU: 1}
	for i := 0; i < 12; i++ {
		for _, tenant := range []string{"gold", "silver"} {
			if _, err := s.Submit(sched.JobSpec{Tenant: tenant, Workers: 2, CoresPerWorker: 2, MR: job}); err != nil {
				t.Fatal(err)
			}
		}
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
		}
		return string(body)
	}
	var done atomic.Bool
	var last string
	scrapes := 0
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			// The scrape that starts after the run ends is the last one.
			stop := done.Load()
			last = get("/metrics")
			get("/debug/trace")
			scrapes++
			if stop {
				return
			}
		}
	}()
	for now := sim.Time(0); now < 300*sim.Second; now += sim.Second {
		mu.Lock()
		f.K.RunUntil(now + sim.Second)
		mu.Unlock()
		// Pace the chunks so scrapes land between them. A handshake with
		// the scraper would order the two sides and hide a missing lock.
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	<-finished

	if scrapes < 2 {
		t.Fatalf("%d scrapes, want at least one during the run and one after", scrapes)
	}
	if !strings.Contains(last, "sky_capacity_cores{") {
		t.Errorf("last scrape has no sky_capacity_cores sample:\n%s", last)
	}
	m := regexp.MustCompile(`(?m)^sky_sched_dispatched_total (\d+)$`).FindStringSubmatch(last)
	if m == nil || m[1] == "0" {
		t.Errorf("last scrape reads sky_sched_dispatched_total %v, want a nonzero count", m)
	}
	t.Logf("%d scrapes, %d jobs dispatched", scrapes, s.Dispatched())
}
