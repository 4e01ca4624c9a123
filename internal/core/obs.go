package core

import "repro/internal/obs"

// Federation observability: one registry spans the whole stack. The
// federation creates it, instruments the shared capacity ledger against it,
// hands it to every nimbus cloud at AddCloud, and passes it to the
// scheduler at EnableScheduler — so a single scrape covers sky_sched_*,
// sky_capacity_*, sky_core_* and sky_nimbus_* families. The public stat
// ints (Migrations, SpotKills, ...) stay as cheap programmatic accessors;
// the registry copies are the scrape-facing view.

// migrationBuckets bound sky_core_migration_seconds in virtual seconds:
// WAN live migrations run tenths of a second (LAN-ish links) to minutes
// (large dirty sets over thin links).
var migrationBuckets = []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60, 120}

// coreMetrics holds the federation's registry instruments.
type coreMetrics struct {
	migrations       *obs.Counter
	migrationBytes   *obs.Counter
	migrationSeconds *obs.Histogram
	spotMigrations   *obs.Counter
	spotKills        *obs.Counter
	launchRetries    *obs.Counter
}

func newCoreMetrics(reg *obs.Registry) coreMetrics {
	return coreMetrics{
		migrations:     reg.Counter("sky_core_migrations_total", "Completed inter-cloud VM migrations."),
		migrationBytes: reg.Counter("sky_core_migration_bytes_total", "Wire bytes moved by migrations."),
		migrationSeconds: reg.Histogram("sky_core_migration_seconds",
			"Virtual duration of completed migrations.", migrationBuckets),
		spotMigrations: reg.Counter("sky_core_spot_migrations_total", "Out-bid spot VMs migrated instead of killed."),
		spotKills:      reg.Counter("sky_core_spot_kills_total", "Out-bid spot VMs terminated."),
		launchRetries:  reg.Counter("sky_core_launch_retries_total", "Transient deploy failures retried on the scheduler grow path."),
	}
}
