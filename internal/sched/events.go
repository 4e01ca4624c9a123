package sched

import "repro/internal/netmon"

// Events are the scheduler's inbound signal path from the rest of the
// stack: the nimbus spot market (revocations, forwarded by the federation's
// scheduler-aware revocation wiring) and the §III-C monitoring pipeline
// (traffic patterns classified from netmon matrices).

// EventKind discriminates Event.
type EventKind int

// Event kinds.
const (
	// EventSpotRevoked reports a spot worker lost mid-job. The scheduler
	// replaces it with on-demand capacity.
	EventSpotRevoked EventKind = iota
	// EventPatternDetected reports a tenant's classified communication
	// pattern; communication-heavy patterns bias future placement toward
	// better-connected clouds.
	EventPatternDetected
	// EventCloudFailed reports a cloud outage. The backend must have run the
	// ledger's FailCloud transition first; the scheduler then requeues
	// running gangs with workers there (progress credit preserved), remaps
	// any head reservation claiming the cloud, and records the failure in
	// the cloud's flap history (see faults.go).
	EventCloudFailed
	// EventCloudRestored reports the outage's end. Clouds past the flap
	// threshold are quarantined behind a jittered exponential backoff
	// before placement may trust them again.
	EventCloudRestored
)

// Event is one notification.
type Event struct {
	Kind    EventKind
	Job     string // spot: affected job ID
	Cloud   string // spot: cloud that revoked; fault: cloud that failed/restored
	Tenant  string // pattern: whose traffic
	Pattern string // pattern: one of the Pattern* constants
}

// Classified traffic patterns.
const (
	PatternAllToAll     = "all-to-all"
	PatternRing         = "ring"
	PatternMasterWorker = "master-worker"
	PatternSparse       = "sparse"
)

// Notify delivers an event to the scheduler.
func (s *Scheduler) Notify(ev Event) {
	switch ev.Kind {
	case EventSpotRevoked:
		j := s.jobByID(ev.Job)
		if j == nil {
			return
		}
		j.Revocations++
		s.m.spotRevocations.Inc()
		if j.State == Running {
			// The worker is gone: the delivered-capacity ledger shrinks at
			// this instant (a replacement, if any, re-grows it on arrival).
			s.resize(j, -j.coresPerWorker())
		}
		if j.State == Running && j.handle != nil {
			j.spotReplaced++
			s.m.spotReplacements.Inc()
			s.growOne(j, &j.spotReplaced)
		}
		// Revocation freed cores on the source cloud.
		s.kick()
	case EventPatternDetected:
		if ev.Tenant != "" && ev.Pattern != "" {
			s.patternOf[ev.Tenant] = ev.Pattern
			if t := s.tenants[ev.Tenant]; t != nil {
				t.boosted = ev.Pattern == PatternAllToAll || ev.Pattern == PatternRing
			}
			s.m.patternEvents.Inc()
		}
	case EventCloudFailed:
		s.cloudFailed(ev.Cloud)
	case EventCloudRestored:
		s.cloudRestored(ev.Cloud)
	}
}

// PatternOf returns the tenant's last detected pattern ("" if none).
func (s *Scheduler) PatternOf(tenant string) string { return s.patternOf[tenant] }

// ClassifyMatrix names the communication structure of an observed traffic
// matrix (the netmon detector's output): all-to-all when most ordered pairs
// exchange bytes, ring when every endpoint has exactly one successor,
// master-worker when one endpoint touches almost every edge, else sparse.
func ClassifyMatrix(m netmon.Matrix) string {
	nodes := make(map[string]bool)
	outDeg := make(map[string]int)
	inDeg := make(map[string]int)
	touch := make(map[string]int)
	edges := 0
	for e, b := range m {
		if b <= 0 || e[0] == e[1] {
			continue
		}
		edges++
		nodes[e[0]], nodes[e[1]] = true, true
		outDeg[e[0]]++
		inDeg[e[1]]++
		touch[e[0]]++
		touch[e[1]]++
	}
	n := len(nodes)
	if n < 2 || edges == 0 {
		return PatternSparse
	}
	if float64(edges) >= 0.6*float64(n*(n-1)) {
		return PatternAllToAll
	}
	if edges == n {
		ring := true
		for node := range nodes {
			if outDeg[node] != 1 || inDeg[node] != 1 {
				ring = false
				break
			}
		}
		if ring {
			return PatternRing
		}
	}
	for node := range nodes {
		if float64(touch[node]) >= 0.8*float64(edges) {
			return PatternMasterWorker
		}
	}
	return PatternSparse
}
