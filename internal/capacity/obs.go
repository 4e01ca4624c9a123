package capacity

import "repro/internal/obs"

// Ledger observability: Instrument mirrors the ledger's transition counts
// into a registry and exports per-cloud core gauges. The public Evictions
// and Retargets ints stay (tests and stats surfaces read them directly);
// the registry counters are the scrape-facing copies. An uninstrumented
// ledger (SimBackend benchmarks, standalone uses) carries nil instrument
// pointers, and every obs method no-ops on nil — the hot path pays one nil
// check per transition.

// ledgerMetrics holds the ledger's resolved registry instruments.
type ledgerMetrics struct {
	acquires      *obs.Counter
	reserves      *obs.Counter
	probes        *obs.Counter
	evictions     *obs.Counter
	retargets     *obs.Counter
	cloudFailures *obs.Counter
	cloudRestores *obs.Counter
}

// Instrument registers the ledger's counters and per-cloud core gauges in
// reg. The gauges are collector-driven: each scrape walks the (sorted)
// account list and publishes committed/held/reserved/free cores per cloud,
// so the exposition always reflects the live ledger without per-transition
// gauge writes.
func (l *Ledger) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.m = ledgerMetrics{
		acquires:      reg.Counter("sky_capacity_acquires_total", "Successful held-lease admissions."),
		reserves:      reg.Counter("sky_capacity_reserves_total", "Future-start reservations created."),
		probes:        reg.Counter("sky_capacity_probes_total", "Reservation-aware capacity probes."),
		evictions:     reg.Counter("sky_capacity_evictions_total", "Forced lease-to-shield eviction transitions."),
		retargets:     reg.Counter("sky_capacity_retargets_total", "Lease retargets between clouds."),
		cloudFailures: reg.Counter("sky_capacity_cloud_failures_total", "FailCloud outage transitions."),
		cloudRestores: reg.Counter("sky_capacity_cloud_restores_total", "RestoreCloud recovery transitions."),
	}
	cores := reg.GaugeVec("sky_capacity_cores",
		"Cores per cloud by claim kind.", "cloud", "kind")
	reg.AddCollector(func() {
		l.mu.RLock()
		defer l.mu.RUnlock()
		for _, name := range l.order {
			a := l.accounts[name]
			cores.With(name, "committed").SetInt(int64(a.committed))
			cores.With(name, "held").SetInt(int64(a.held))
			cores.With(name, "reserved").SetInt(int64(a.reserved))
			cores.With(name, "free").SetInt(int64(a.total - a.committed - a.held))
		}
	})
}
