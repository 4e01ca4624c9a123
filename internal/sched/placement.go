package sched

import (
	"bytes"
	"math"
	"sort"
	"strconv"
)

// Gang placement: a job's workers may span clouds (over the ViNe overlay)
// when no single cloud can hold them. Policies return a Plan — an ordered
// set of {cloud, workers} members plus the cost breakdown that justified
// it — instead of a single cloud name. Single-cloud plans remain the common
// case and score exactly as the pre-plan scorer did, so established results
// (E10) are preserved; spanning is attempted only when no single cloud fits.

// Member is one cloud's slice of a gang placement.
type Member struct {
	Cloud   string
	Workers int
}

// Plan is a (possibly multi-cloud) placement for one job: ordered members —
// the first is the anchor, where elastic growth is tried first — plus the
// scored cost breakdown.
type Plan struct {
	Members []Member

	// Cost breakdown (see Scheduler.scorePlanIdx).
	Locality float64 // input residency covered by members
	Capacity float64 // cores-weighted free-capacity headroom
	Input    float64 // inter-site bandwidth term for uncovered input
	Shuffle  float64 // cross-site shuffle penalty (subtracted)
	Score    float64
}

// Empty reports whether the plan places nothing.
func (p Plan) Empty() bool { return len(p.Members) == 0 }

// Feasible reports whether the plan fits the free cores it was scored
// against. A feasible plan's Score may still be negative (a heavy shuffle
// penalty) — infeasibility is marked by a -Inf score, not by sign.
func (p Plan) Feasible() bool { return !p.Empty() && !math.IsInf(p.Score, -1) }

// Spanning reports whether the plan crosses cloud boundaries.
func (p Plan) Spanning() bool { return len(p.Members) > 1 }

// Workers returns the total workers placed.
func (p Plan) Workers() int {
	n := 0
	for _, m := range p.Members {
		n += m.Workers
	}
	return n
}

// Primary returns the anchor cloud ("" for an empty plan).
func (p Plan) Primary() string {
	if len(p.Members) == 0 {
		return ""
	}
	return p.Members[0].Cloud
}

// WorkersOn returns the workers placed on one cloud.
func (p Plan) WorkersOn(cloud string) int {
	for _, m := range p.Members {
		if m.Cloud == cloud {
			return m.Workers
		}
	}
	return 0
}

// GrowCandidates splits the cloud list into capacity.PickGrowTarget's
// inputs: the plan's member clouds in plan order, then the non-member spill
// candidates in the given order (callers pass name-sorted clouds; the order
// is load-bearing — headroom ties keep the earliest). Shared by the
// federation and simulation backends so the growth policy's inputs cannot
// drift between them.
func (p Plan) GrowCandidates(clouds []string) (members, spill []string) {
	members = make([]string, 0, len(p.Members))
	for _, m := range p.Members {
		members = append(members, m.Cloud)
	}
	for _, c := range clouds {
		if p.WorkersOn(c) == 0 {
			spill = append(spill, c)
		}
	}
	return members, spill
}

// MoveWorkers returns a copy of the plan with up to `workers` workers moved
// from one member onto another (merged into an existing member or appended
// as a new one; a fully drained member disappears). The cost-breakdown
// fields are zeroed — they described the old shape. Shared by the
// scheduler's relocation bookkeeping and the backends' own plan copies so
// the two cannot drift.
func (p Plan) MoveWorkers(from, to string, workers int) Plan {
	out := Plan{Members: make([]Member, 0, len(p.Members))}
	moved := 0
	for _, m := range p.Members {
		if m.Cloud == from {
			take := workers
			if take > m.Workers {
				take = m.Workers
			}
			m.Workers -= take
			moved = take
			if m.Workers == 0 {
				continue
			}
		}
		out.Members = append(out.Members, m)
	}
	if moved == 0 {
		return Plan{Members: append(out.Members[:0:0], p.Members...)}
	}
	for i := range out.Members {
		if out.Members[i].Cloud == to {
			out.Members[i].Workers += moved
			return out
		}
	}
	out.Members = append(out.Members, Member{Cloud: to, Workers: moved})
	return out
}

// String renders "cloud0:16+cloud1:8".
func (p Plan) String() string {
	if p.Empty() {
		return "<none>"
	}
	return string(appendPlanString(nil, p.Members))
}

// appendPlanString renders the member list in Plan.String's form into dst —
// the allocation-free path behind the deterministic plan tie-break.
func appendPlanString(dst []byte, members []Member) []byte {
	for i, m := range members {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = append(dst, m.Cloud...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(m.Workers), 10)
	}
	return dst
}

// SingleCloudPlan wraps one cloud and worker count as a Plan (no scoring).
func SingleCloudPlan(cloud string, workers int) Plan {
	return Plan{Members: []Member{{Cloud: cloud, Workers: workers}}}
}

// PlacementPolicy chooses the placement plan for a job's workers. The view
// carries the cycle's cloud snapshot and its working free-core vector (the
// backend snapshot minus what this cycle already dispatched); an empty plan
// means nothing fits. The returned plan must own its Members slice — it
// outlives the call (job records, reservations).
//
// A non-empty plan must fit the view: it names only view clouds, each at
// most once, and fits each in whole workers (Workers × cores per worker ≤
// that cloud's working free cores). The scheduler's arithmetic shortcuts
// rest on this: the watermark (canFit), the cycle's slot test, which skips
// every job wider than Σ⌊free/cpw⌋ under any policy, and the backfill
// bound (backfillDoomed).
//
// ProvablyUnplaceable is the exact fit precheck: it must return true only
// when Choose would certainly return an empty plan for j against v — a
// cheap arithmetic proof, no scoring. The scheduler calls it to skip Choose
// on the blocked paths: in the cycle after the slot test, and on the
// what-if views of the reservation walk (every non-viable instant) and of
// chooseVictims. Soundness is what matters: a false negative just means
// Choose runs and discovers emptiness itself, so decisions are identical
// with or without the precheck.
type PlacementPolicy interface {
	Name() string
	Choose(s *Scheduler, j *Job, v *CloudView) Plan
	ProvablyUnplaceable(j *Job, v *CloudView) bool
}

// placeScratch holds the buffers placement evaluations score plans in. The
// scheduler owns exactly one (Scheduler.place): Choose runs on the kernel
// thread, so evaluations never overlap and the buffers are reused across
// every call.
type placeScratch struct {
	oneMember   [1]Member
	bestMembers []Member
	growMembers []Member
	growCand    []Member
	growBest    []Member
	// View-position slices parallel to growMembers/growCand/growBest, so
	// growPlan's inner loop scores without name→position lookups.
	growIdxs    []int
	growCandIdx []int
	growBestIdx []int
	nameScratch []string
	strA, strB  []byte // betterPlan tie-break rendering
	memberSlab  []Member
}

// persistMembers copies a scratch-backed member list into the scratch's
// append-only slab so the returned plan survives scratch reuse without a
// per-plan allocation. Slices are three-index capped: an append to a
// returned plan copies out instead of clobbering the next plan's members.
// Chunks are never reused, so escaping plans stay valid forever.
func (ps *placeScratch) persistMembers(m []Member) []Member {
	if len(m) == 0 {
		return nil
	}
	if cap(ps.memberSlab)-len(ps.memberSlab) < len(m) {
		n := 256
		if len(m) > n {
			n = len(m)
		}
		ps.memberSlab = make([]Member, 0, n)
	}
	n := len(ps.memberSlab)
	ps.memberSlab = append(ps.memberSlab, m...)
	return ps.memberSlab[n : n+len(m) : n+len(m)]
}

// planMemoSlots sizes the plan memo table: one entry per distinct job shape
// scored against the current frozen view, evicted round-robin. Mixed
// workloads alternate between a handful of shapes within one backfill scan,
// so a single entry thrashed.
const planMemoSlots = 4

// cacheablePolicy marks placement policies whose Choose is a pure function
// of (job, view) — no RNG draws, no mutable internal state. Only these let
// the plan memo and the backfill bound skip Choose (reusing or skipping a
// RandomPlacement answer would skip a draw and desynchronize the kernel RNG
// stream).
type cacheablePolicy interface{ PureChoose() bool }

// planMemo is one entry of the frozen-view placement memo: between two
// dispatches the working free vector is frozen, and for a pure policy
// Choose is a function of the view plus the handful of job-spec fields
// scoring reads (worker shape, input locality, shuffle volume, tenant
// pattern boost). A blocked cycle's backfill scan walks hundreds of
// same-shaped queued jobs against one unchanged view — under the memo the
// first of each shape pays for Choose and the rest match and reuse the
// plan, byte for byte the same decision. Any view mutation (a dispatch's
// take, a mid-cycle re-snapshot) and every cycle start invalidate the whole
// table. Policies without PureChoose bypass it.
//
// A hit hands out the stored plan itself, members included. No code writes
// a Plan's Members in place (MoveWorkers and the backends copy, and
// BestScore returns capped slices), so jobs may safely share one member
// slice.
type planMemo struct {
	ok            bool
	workers, cpw  int
	inputSite     string
	maps, reduces int
	shufBytes     int64
	boosted       bool
	plan          Plan
}

// boostedTenant reports whether the job's tenant has a boost-worthy
// detected pattern (all-to-all or ring): resolved through the tenant
// pointer cached on the job at Submit, with a map fallback for jobs built
// outside Submit (tests).
func (s *Scheduler) boostedTenant(j *Job) bool {
	if j.tref != nil {
		return j.tref.boosted
	}
	pt := s.patternOf[j.Spec.Tenant]
	return pt == PatternAllToAll || pt == PatternRing
}

// invalidateMemos drops every plan memo entry and the fit table: a new
// cycle started or the working free vector moved (a dispatch's take, a
// mid-cycle re-snapshot), so no memoized plan is known to still be Choose's
// answer and no fit row its vector's sum.
func (s *Scheduler) invalidateMemos() {
	for i := range s.memos {
		s.memos[i].ok = false
	}
	s.dropFit()
}

// memoLookup returns the memo entry holding this job shape's plan, or nil.
func (s *Scheduler) memoLookup(j *Job, boosted bool) *planMemo {
	for i := range s.memos {
		if s.memos[i].matches(j, boosted) {
			return &s.memos[i]
		}
	}
	return nil
}

// choosePlan is the cycle scan's Choose entry point: a memo hit returns the
// cached plan, a miss delegates to the policy and records the answer in a
// round-robin slot for the rest of the frozen-view window.
func (s *Scheduler) choosePlan(j *Job, v *CloudView) Plan {
	if !s.memoable {
		return s.cfg.Placement.Choose(s, j, v)
	}
	boosted := s.boostedTenant(j)
	if m := s.memoLookup(j, boosted); m != nil {
		s.m.planMemoHits.Inc()
		return m.plan
	}
	p := s.cfg.Placement.Choose(s, j, v)
	m := &s.memos[s.memoNext]
	s.memoNext = (s.memoNext + 1) % planMemoSlots
	m.ok = true
	m.workers, m.cpw = j.workers(), j.coresPerWorker()
	m.inputSite = j.Spec.InputSite
	m.boosted = boosted
	m.maps, m.reduces = j.Spec.MR.NumMaps, j.Spec.MR.NumReduces
	m.shufBytes = j.Spec.MR.ShuffleBytesPerMapPerReduce
	m.plan = p
	return p
}

// matches reports whether the memo holds the plan for this job's shape.
func (m *planMemo) matches(j *Job, boosted bool) bool {
	return m.ok && m.workers == j.workers() && m.cpw == j.coresPerWorker() &&
		m.inputSite == j.Spec.InputSite && m.boosted == boosted &&
		m.maps == j.Spec.MR.NumMaps && m.reduces == j.Spec.MR.NumReduces &&
		m.shufBytes == j.Spec.MR.ShuffleBytesPerMapPerReduce
}

// inputFraction returns the fraction of the job's input bytes resident on
// one cloud: 1 on the whole-file InputSite, 0 elsewhere.
func (j *Job) inputFraction(cloud string) float64 {
	if cloud != "" && cloud == j.Spec.InputSite {
		return 1
	}
	return 0
}

// scorePlanIdx rates a candidate plan for a job, returning the plan with its
// cost breakdown filled in; a plan that does not fit the view's free cores
// comes back infeasible (Score = -Inf; check Plan.Feasible, not the sign —
// a feasible shuffle-heavy plan can legitimately score below zero). idxs[k]
// is members[k]'s view position (-1 for unknown), so the caller's loop
// scores without name→position lookups. Four terms, per the federation
// design:
//
//   - data locality: the fraction of the job's input bytes on some member
//     cloud (1 when a member is the whole-file InputSite, else 0) — input
//     covered by a member stays off the WAN;
//   - free capacity: cores-weighted headroom across members, so load
//     spreads when locality is indifferent;
//   - inter-site input bandwidth: the uncovered input fraction streams over
//     the bottleneck link from the input site, soft-normalised by
//     refBandwidth. Tenants with a detected communication-heavy traffic
//     pattern get this term boosted, biasing them toward better-connected
//     clouds;
//   - cross-site shuffle cost (spanning plans only): the job's map-output
//     volume crossing cloud boundaries (all-to-all during the shuffle
//     phase: fraction 1 - Σ shareᵢ²) over the bottleneck bandwidth between
//     members, normalised by refShuffleSeconds and boosted by detected
//     patterns — this is what makes a fat-pipe partner beat a cheap
//     thin-pipe one.
//
// Single-member plans have zero shuffle cost and score identically to the
// pre-plan single-cloud scorer. The returned plan's Members field aliases
// the caller's slice.
func (s *Scheduler) scorePlanIdx(j *Job, members []Member, idxs []int, v *CloudView) Plan {
	p := Plan{Members: members, Score: math.Inf(-1)}
	if len(members) == 0 {
		return p
	}
	cpw := j.coresPerWorker()
	totalCores := 0
	for k, m := range members {
		i := idxs[k]
		if i < 0 || m.Workers <= 0 || v.free[i] < m.Workers*cpw || v.Clouds[i].TotalCores <= 0 {
			return p
		}
		totalCores += m.Workers * cpw
	}
	boost := 1.0
	if s.boostedTenant(j) {
		boost = patternBoost
	}
	for k, m := range members {
		i := idxs[k]
		share := float64(m.Workers*cpw) / float64(totalCores)
		p.Capacity += capacityWeight * share * float64(v.free[i]) / float64(v.Clouds[i].TotalCores)
		p.Locality += j.inputFraction(m.Cloud)
	}
	if p.Locality > 1 {
		p.Locality = 1
	}
	uncovered := 1 - p.Locality
	p.Locality *= localityWeight
	if j.Spec.InputSite != "" && uncovered > 0 {
		// The uncovered input streams from the input site; each member pays
		// its cores-weighted share of the bandwidth term.
		for _, m := range members {
			share := float64(m.Workers*cpw) / float64(totalCores)
			if m.Cloud == j.Spec.InputSite {
				continue
			}
			bw := s.B.Bandwidth(j.Spec.InputSite, m.Cloud)
			p.Input += bandwidthWeight * boost * uncovered * share * bw / (bw + refBandwidth)
		}
	}
	if len(members) > 1 && !s.cfg.DisableShuffleCost {
		if secs := crossShuffleSeconds(s.B, j, members); secs > 0 {
			p.Shuffle = boost * secs / (secs + refShuffleSeconds)
		}
	}
	p.Score = p.Locality + p.Capacity + p.Input - p.Shuffle
	return p
}

// crossShuffleSeconds estimates the time a plan spends moving map output
// across cloud boundaries: with workers split share₁..shareₙ and shuffle
// traffic all-to-all, the fraction 1 - Σ shareᵢ² of the job's map-output
// volume crosses sites, through the bottleneck link between members. One
// model shared by plan scoring (scorePlanIdx) and runtime estimation
// (planEstimateSeconds), so reservations agree with the scores that made
// them.
func crossShuffleSeconds(b Backend, j *Job, members []Member) float64 {
	volume := float64(j.Spec.MR.NumMaps) * float64(j.Spec.MR.NumReduces) *
		float64(j.Spec.MR.ShuffleBytesPerMapPerReduce)
	cpw := j.coresPerWorker()
	totalCores := 0
	for _, m := range members {
		totalCores += m.Workers * cpw
	}
	if volume <= 0 || totalCores <= 0 {
		return 0
	}
	crossFrac := 1.0
	for _, m := range members {
		share := float64(m.Workers*cpw) / float64(totalCores)
		crossFrac -= share * share
	}
	if crossFrac <= 0 {
		return 0
	}
	minBW := 0.0
	for i, a := range members {
		for _, m := range members[i+1:] {
			bw := b.Bandwidth(a.Cloud, m.Cloud)
			if bw <= 0 {
				continue
			}
			if minBW == 0 || bw < minBW {
				minBW = bw
			}
		}
	}
	if minBW <= 0 {
		return 0
	}
	return volume * crossFrac / minBW
}

// planPriceIdx returns the per-core-hour cost of the plan (the tie-breaker:
// cheaper capacity wins among equal scores), given each member's view
// position as in scorePlanIdx.
func planPriceIdx(members []Member, idxs []int, v *CloudView, cpw int) float64 {
	price := 0.0
	for k, m := range members {
		if i := idxs[k]; i >= 0 {
			price += float64(m.Workers*cpw) * v.Clouds[i].Price
		}
	}
	return price
}

// betterPlan reports whether candidate a beats b: higher score, then lower
// price, then lexicographic member rendering for determinism. The rendering
// comparison goes through the evaluation's byte scratch — byte-equal to
// a.String() < b.String() without building the strings. The three-level
// comparison is a total order over distinct plans, so the winner never
// depends on the order candidates are scanned in.
func (ps *placeScratch) betterPlan(a, b Plan, aPrice, bPrice float64) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if aPrice != bPrice {
		return aPrice < bPrice
	}
	ps.strA = appendPlanString(ps.strA[:0], a.Members)
	ps.strB = appendPlanString(ps.strB[:0], b.Members)
	return bytes.Compare(ps.strA, ps.strB) < 0
}

// BestScore is the default locality- and shuffle-aware policy. It prefers
// the best-scoring single cloud with room for the whole gang (ties break by
// lower price then name — identical to the pre-plan policy); only when no
// single cloud fits does it assemble a spanning plan: from every viable
// anchor it greedily adds the member that maximises the plan score (which
// penalises thin inter-member pipes through the shuffle term) until the
// worker demand is covered, then keeps the best complete candidate.
type BestScore struct{}

// Name implements PlacementPolicy.
func (BestScore) Name() string { return "best-score" }

// PureChoose marks BestScore's Choose as a pure function of (job, view):
// the plan memo may reuse its answers.
func (BestScore) PureChoose() bool { return true }

// ProvablyUnplaceable implements PlacementPolicy: placing `workers` whole
// workers of cpw cores each — on one cloud or spanning — requires
// Σ⌊free/cpw⌋ ≥ workers across clouds, and conversely growPlan succeeds
// whenever the slot sum covers the demand (each greedy step takes a cloud's
// whole ⌊free/cpw⌋, and a constructed plan is always feasible against the
// free cores it was built from). So the slot sum decides emptiness exactly,
// in one pass over the free vector.
func (BestScore) ProvablyUnplaceable(j *Job, v *CloudView) bool {
	cpw := j.coresPerWorker()
	slots := 0
	for _, f := range v.free {
		if f > 0 {
			slots += f / cpw
		}
	}
	return slots < j.workers()
}

// Choose implements PlacementPolicy. Candidate plans are scored in the
// scheduler's placement scratch; only the winning plan's members are
// copied out, so a Choose that places nothing allocates nothing.
func (BestScore) Choose(s *Scheduler, j *Job, v *CloudView) Plan {
	ps := &s.place
	workers := j.workers()
	cpw := j.coresPerWorker()
	boost := 1.0
	if s.boostedTenant(j) {
		boost = patternBoost
	}
	if best := scanSingleClouds(s, j, v, ps, workers, cpw, boost); !best.Empty() {
		best.Members = ps.persistMembers(best.Members)
		return best
	}
	return scanGangClouds(s, j, v, ps, workers, cpw)
}

// scanGangClouds is the spanning fallback when no single cloud fits: grow a
// plan from each viable anchor and keep the best complete candidate.
func scanGangClouds(s *Scheduler, j *Job, v *CloudView, ps *placeScratch, workers, cpw int) Plan {
	var best Plan
	bestPrice := 0.0
	for i := range v.Clouds {
		if v.free[i] < cpw {
			continue
		}
		p, ok := s.growPlan(j, v.Clouds[i].Name, i, workers, cpw, v, ps)
		if !ok {
			continue
		}
		price := planPriceIdx(p.Members, ps.growIdxs, v, cpw)
		if best.Empty() || ps.betterPlan(p, best, price, bestPrice) {
			ps.bestMembers = append(ps.bestMembers[:0], p.Members...)
			p.Members = ps.bestMembers
			best, bestPrice = p, price
		}
	}
	if !best.Empty() {
		best.Members = ps.persistMembers(best.Members)
	}
	return best
}

// scanSingleClouds scores every single-cloud candidate and returns the best
// plan — the common-case fast path, scored index-first: the four scorePlanIdx
// terms specialised to one member whose cores-weighted share is exactly 1,
// so no name→position lookups and no shuffle term. Float operation order
// matches scorePlanIdx term for term (share = 1 multiplications are exact),
// keeping scores bit-identical to the general path. The returned members
// alias ps.bestMembers; the caller copies what it keeps.
func scanSingleClouds(s *Scheduler, j *Job, v *CloudView, ps *placeScratch, workers, cpw int, boost float64) Plan {
	var best Plan
	bestPrice := 0.0
	for i := range v.Clouds {
		if v.free[i] < workers*cpw || v.Clouds[i].TotalCores <= 0 {
			continue
		}
		name := v.Clouds[i].Name
		var p Plan
		p.Capacity = capacityWeight * float64(v.free[i]) / float64(v.Clouds[i].TotalCores)
		p.Locality = j.inputFraction(name)
		uncovered := 1 - p.Locality
		p.Locality *= localityWeight
		if j.Spec.InputSite != "" && uncovered > 0 && name != j.Spec.InputSite {
			bw := s.B.Bandwidth(j.Spec.InputSite, name)
			p.Input = bandwidthWeight * boost * uncovered * bw / (bw + refBandwidth)
		}
		p.Score = p.Locality + p.Capacity + p.Input
		price := float64(workers*cpw) * v.Clouds[i].Price
		ps.oneMember[0] = Member{Cloud: name, Workers: workers}
		p.Members = ps.oneMember[:]
		if best.Empty() || ps.betterPlan(p, best, price, bestPrice) {
			ps.bestMembers = append(ps.bestMembers[:0], p.Members...)
			p.Members = ps.bestMembers
			best, bestPrice = p, price
		}
	}
	return best
}

// planHasIdx reports whether the member positions already include view
// position i (member lists are short, so a scan beats a set).
func planHasIdx(idxs []int, i int) bool {
	for _, x := range idxs {
		if x == i {
			return true
		}
	}
	return false
}

// growPlan assembles a spanning plan anchored at the given cloud: the
// anchor takes as many workers as it can host, then members are appended
// greedily — each step adds the cloud that maximises the partial plan's
// score — until the demand is met. ok is false when even all clouds
// together cannot host the gang. The returned plan's Members alias the
// evaluation's scratch, and ps.growIdxs holds their view positions, both
// valid only until the next growPlan call with the same scratch — callers
// copy what they keep.
func (s *Scheduler) growPlan(j *Job, anchor string, anchorIdx, workers, cpw int, v *CloudView, ps *placeScratch) (Plan, bool) {
	take := func(idx, remaining int) int {
		n := v.free[idx] / cpw
		if n > remaining {
			n = remaining
		}
		return n
	}
	members := append(ps.growMembers[:0], Member{Cloud: anchor, Workers: take(anchorIdx, workers)})
	idxs := append(ps.growIdxs[:0], anchorIdx)
	remaining := workers - members[0].Workers
	for remaining > 0 {
		var bestExt Plan
		bestPrice := 0.0
		bestTake := 0
		// The member prefix is loop-invariant: copy it into the candidate
		// buffers once per round and rewrite only the tail slot per cloud.
		cand := append(append(ps.growCand[:0], members...), Member{})
		ps.growCand = cand[:0]
		candIdx := append(append(ps.growCandIdx[:0], idxs...), -1)
		ps.growCandIdx = candIdx[:0]
		for i := range v.Clouds {
			if planHasIdx(candIdx[:len(candIdx)-1], i) {
				continue
			}
			n := take(i, remaining)
			if n <= 0 {
				continue
			}
			cand[len(cand)-1] = Member{Cloud: v.Clouds[i].Name, Workers: n}
			candIdx[len(candIdx)-1] = i
			p := s.scorePlanIdx(j, cand, candIdx, v)
			if !p.Feasible() {
				continue
			}
			price := planPriceIdx(cand, candIdx, v, cpw)
			if bestExt.Empty() || ps.betterPlan(p, bestExt, price, bestPrice) {
				ps.growBest = append(ps.growBest[:0], cand...)
				ps.growBestIdx = append(ps.growBestIdx[:0], candIdx...)
				p.Members = ps.growBest
				bestExt, bestPrice, bestTake = p, price, n
			}
		}
		if bestExt.Empty() {
			return Plan{}, false
		}
		members = append(members[:0], bestExt.Members...)
		idxs = append(idxs[:0], ps.growBestIdx...)
		remaining -= bestTake
	}
	ps.growMembers = members
	ps.growIdxs = idxs
	return s.scorePlanIdx(j, members, idxs, v), true
}

// RandomPlacement is the locality-oblivious, single-cloud baseline: a
// uniformly random cloud among those with room for the whole gang, drawn
// from the kernel RNG (deterministic per seed: the same seed yields the
// same plan sequence). It never spans, so jobs wider than every single
// cloud stay queued — the E11 contrast case.
type RandomPlacement struct{}

// Name implements PlacementPolicy.
func (RandomPlacement) Name() string { return "random" }

// ProvablyUnplaceable implements PlacementPolicy: the policy only ever picks
// a single cloud with room for the whole gang, and when no cloud qualifies
// Choose returns empty before drawing from the kernel RNG — so skipping the
// call preserves the RNG stream exactly.
func (RandomPlacement) ProvablyUnplaceable(j *Job, v *CloudView) bool {
	need := j.Cores()
	for _, f := range v.free {
		if f >= need {
			return false
		}
	}
	return true
}

// Choose implements PlacementPolicy.
func (RandomPlacement) Choose(s *Scheduler, j *Job, v *CloudView) Plan {
	fitting := s.place.nameScratch[:0]
	for i := range v.Clouds {
		if v.free[i] >= j.Cores() {
			fitting = append(fitting, v.Clouds[i].Name)
		}
	}
	s.place.nameScratch = fitting
	if len(fitting) == 0 {
		return Plan{}
	}
	sort.Strings(fitting)
	return SingleCloudPlan(fitting[s.K.Rand().Intn(len(fitting))], j.workers())
}
