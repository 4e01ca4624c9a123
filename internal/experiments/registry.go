package experiments

import "repro/internal/metrics"

// Experiment pairs an experiment ID (from DESIGN.md §4) with its runner.
type Experiment struct {
	ID    string
	Claim string
	Run   func(seed int64) []*metrics.Table
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "virtual clusters spanning clouds run BLAST efficiently; EP apps scale best (§II)", E1SkyComputingScaling},
		{"E1c", "HDFS data locality keeps MapReduce input off the WAN (§II substrate)", E1cDataLocality},
		{"E2", "dynamic cluster-size adjustment at run time (§II)", E2ElasticCluster},
		{"E3a", "broadcast chain distributes images efficiently (§II)", E3aBroadcastChain},
		{"E3b", "copy-on-write images give near-instant VM creation (§II)", E3bCoWStartup},
		{"E4", "Shrinker cuts migration time ~20%, WAN bytes 30-40% (§III-A)", E4Shrinker},
		{"E5", "ViNe reconfiguration keeps TCP connections across migration (§III-B)", E5NetworkTransparency},
		{"E6", "passive capture infers communication patterns like invasive tools (§III-C)", E6PatternDetection},
		{"E7", "autonomic adaptation relocates clusters; comm-aware placement limits WAN traffic (§III-C)", E7AutonomicAdaptation},
		{"E8", "Elastic MapReduce service meets deadlines via resource selection (§IV)", E8ElasticMapReduce},
		{"E9", "migratable spot instances preserve work under revocation (§IV)", E9MigratableSpot},
		{"E10", "federation scheduler: fair shares converge to weights; locality-aware placement beats random (§II+§IV synthesis)", E10SchedulerContention},
		{"E11", "gang placement: wider-than-any-cloud jobs span clouds; shuffle-cost-aware plans beat bandwidth-oblivious spanning (§II gang scheduling)", E11GangPlacement},
		{"E12", "revocable placement: spot-priced preemption starts a blocked head >=2x sooner than wait-for-release; consolidation zeroes a spanning gang's cross-site shuffle (§III-C adaptation + §IV synthesis)", E12Preemption},
		{"E13", "scale survival: under a heavy-tailed diurnal trace with mis-calibrated estimates, preemption (+aging) caps the p99 wait and fair-share drift that plain backfill lets blow up (§IV at scale); consolidation never runs, since replays do not start the elastic pass", E13ScaleSurvival},
		{"E14", "fault tolerance: under an outage storm, degraded-mode handling (progress credit + flap quarantine + launch retry) beats naive zero-credit requeue on p99 wait and goodput (§IV robustness)", E14FaultTolerance},
		{"A1", "ablation: Shrinker registry scope (site-wide vs per-VM vs none)", A1RegistryScope},
		{"A2", "ablation: dirty-rate sensitivity of pre-copy vs Shrinker", A2DirtyRateSweep},
		{"A3", "ablation: broadcast-chain chunk size (pipelining vs per-hop latency)", A3ChunkSize},
	}
}

// ByID returns one experiment, or a zero Experiment if unknown.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
