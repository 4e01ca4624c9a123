package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vm"
)

// runSched is the `skyctl sched` subcommand: build a federation, stand up
// the federation-wide job scheduler, flood it with per-tenant job streams,
// and report fair-share convergence, placement, and scheduler counters.
func runSched(args []string) {
	fs := flag.NewFlagSet("skyctl sched", flag.ExitOnError)
	var (
		seed      = fs.Int64("seed", 42, "simulation seed")
		nClouds   = fs.Int("clouds", 2, "number of clouds in the federation")
		hosts     = fs.Int("hosts", 4, "hosts per cloud (8 cores each)")
		tenants   = fs.String("tenants", "gold=3,silver=1", "tenant=weight list")
		jobs      = fs.Int("jobs", 40, "jobs submitted per tenant")
		workers   = fs.Int("workers", 4, "worker VMs per job")
		cores     = fs.Int("cores", 2, "cores per worker")
		maps      = fs.Int("maps", 32, "map tasks per job")
		inputSite = fs.String("input-site", "", "cloud holding job input (locality-aware placement)")
		inputMB   = fs.Int64("input-mb", 512, "input megabytes per job (with -input-site)")
		random    = fs.Bool("random", false, "random placement baseline instead of locality-aware")
		spot      = fs.Bool("spot", false, "spot workers with scheduler-driven replacement")
		spikeAt   = fs.Duration("spike-at", time.Minute, "spot price spike time (with -spot)")
		until     = fs.Duration("until", 15*time.Minute, "measurement horizon (virtual time)")
		wanMB     = fs.Int("wan-mb", 60, "inter-cloud link bandwidth, MB/s")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/trace on this address while the run steps")
		traceOut    = fs.String("trace-out", "", "append scheduler decision trace JSONL to this file")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	fs.Parse(args)
	stop := startProfiles(*cpuProf, *memProf)
	defer stop()

	weights, err := parseTenants(*tenants)
	if err != nil {
		log.Fatal(err)
	}
	f := core.NewFederation(*seed)
	names := make([]string, *nClouds)
	for i := range names {
		names[i] = fmt.Sprintf("cloud%d", i)
		c := f.AddCloud(nimbus.Config{
			Name: names[i], Hosts: *hosts,
			HostSpec: nimbus.HostSpec{Cores: 8, MemPages: 64 * 16384, Speed: 1.0},
			NICBW:    125 << 20,
			WANUp:    float64(*wanMB << 20), WANDown: float64(*wanMB << 20),
			PricePerCoreHour: 0.08 + 0.04*float64(i),
		})
		m := vm.NewContentModel(*seed+int64(i)*17, "debian", 0.1, 0.5, 2048)
		c.PutImage(vm.NewDiskImage("debian", 1024, 65536, m))
	}
	var cfg sched.Config
	if *random {
		cfg.Placement = sched.RandomPlacement{}
	}
	tracer := obs.NewTracer(4096)
	if *traceOut != "" || *metricsAddr != "" {
		cfg.Trace = tracer
	}
	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer traceFile.Close()
		tracer.SetSink(traceFile)
	}
	s := f.EnableScheduler(core.SchedulerOptions{Sched: cfg})
	for name, w := range weights {
		s.AddTenant(name, w)
	}
	if *spot {
		for _, n := range names {
			f.WireSchedulerSpot(n)
		}
		f.K.Schedule(sim.FromSeconds(spikeAt.Seconds()), func() {
			fmt.Printf("t=%v spot price spike on every cloud\n", f.K.Now())
			for _, n := range names {
				f.Cloud(n).Spot.ForcePrice(1.0)
			}
		})
	}

	ids := map[string][]string{}
	// Submit in tenant-name order, not map order: job IDs follow submission
	// order, so map order would number the jobs differently from run to run
	// and two identical runs would write different -trace-out traces.
	for _, name := range s.Tenants() {
		for i := 0; i < *jobs; i++ {
			id, err := s.Submit(sched.JobSpec{
				Tenant: name, Name: fmt.Sprintf("%s-%03d", name, i),
				Workers: *workers, CoresPerWorker: *cores,
				InputSite: *inputSite, InputBytes: *inputMB << 20,
				Spot: *spot, Bid: 0.05,
				MR: mapreduce.Job{Name: "blast", NumMaps: *maps, NumReduces: 1,
					MapCPU: 30, ReduceCPU: 2},
			})
			if err != nil {
				log.Fatal(err)
			}
			ids[name] = append(ids[name], id)
		}
	}

	horizon := sim.FromSeconds(until.Seconds())
	if *metricsAddr != "" {
		// Collectors read live model state, so scrapes must not interleave
		// with kernel events: the registry takes a lock around every scrape
		// and the run steps the kernel in one-virtual-second chunks under
		// the same lock. Virtual time is decoupled from wall time — the
		// server stays up only while the process runs.
		var mu sync.Mutex
		s.Obs().SetScrapeLock(&mu)
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.Obs().Handler())
		mux.Handle("/debug/trace", tracer.Handler())
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		fmt.Printf("serving /metrics and /debug/trace on %s\n", *metricsAddr)
		// Pace virtual time: an unpaced run finishes in tens of wall
		// milliseconds, leaving no window for a scraper to connect.
		for now := sim.Time(0); now < horizon; now += sim.Second {
			mu.Lock()
			f.K.RunUntil(now + sim.Second)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	} else {
		f.K.RunUntil(horizon)
	}

	shares := s.Shares()
	entitled := s.EntitledShares()
	t := metrics.NewTable(fmt.Sprintf("skyctl sched @ t=%v (placement: %s)",
		f.K.Now(), s.Config().Placement.Name()),
		"tenant", "weight", "entitled", "delivered", "rel err", "done", "running", "queued", "mean wait (s)")
	for _, name := range s.Tenants() {
		var wait float64
		done, running, started := 0, 0, 0
		for _, id := range ids[name] {
			ji, _ := s.Poll(id)
			switch ji.State {
			case sched.Done:
				done++
			case sched.Running:
				running++
			}
			if ji.State != sched.Queued {
				wait += ji.Wait.Seconds()
				started++
			}
		}
		if started > 0 {
			wait /= float64(started)
		}
		rel := 0.0
		if entitled[name] > 0 {
			rel = math.Abs(shares[name]-entitled[name]) / entitled[name]
		}
		t.AddRowf(name, weights[name], metrics.FmtPct(entitled[name]), metrics.FmtPct(shares[name]),
			metrics.FmtPct(rel), done, running, s.TenantQueueLen(name), wait)
	}
	fmt.Println(t)

	fmt.Println(obs.SnapshotTable(s.Obs(), "scheduler metrics",
		"sky_sched_", "sky_capacity_", "!sky_sched_phase_seconds"))

	st := metrics.NewTable("run totals", "metric", "value")
	st.AddRowf("WAN bytes", metrics.FmtBytes(f.Net.TotalWANBytes()))
	var cost float64
	for _, c := range f.Clouds() {
		cost += c.Cost()
	}
	st.AddRowf("compute cost ($)", cost)
	if *traceOut != "" {
		st.AddRowf("trace events", tracer.Len())
	}
	fmt.Println(st)
}

// parseTenants parses "gold=3,silver=1" into weights.
func parseTenants(spec string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("skyctl: bad tenant %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(wstr, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("skyctl: bad weight in %q", part)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("skyctl: no tenants in %q", spec)
	}
	return out, nil
}
