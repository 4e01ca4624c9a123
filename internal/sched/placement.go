package sched

import (
	"bytes"
	"math"
	"sort"
	"strconv"
)

// Gang placement: a job's workers may span clouds (over the ViNe overlay)
// when no single cloud can hold them. Policies return a Plan — an ordered
// set of {cloud, workers} members plus the score that justified it —
// instead of a single cloud name. Single-cloud plans remain the common case
// and score exactly as the pre-plan scorer did, so established results
// (E10) are preserved; spanning is attempted only when no single cloud fits.

// Member is one cloud's slice of a gang placement.
type Member struct {
	Cloud   string
	Workers int
}

// Plan is a (possibly multi-cloud) placement for one job: ordered members —
// the first is the anchor, where elastic growth is tried first — plus the
// placement score (see Scheduler.scorePlanIdx).
type Plan struct {
	Members []Member
	Score   float64
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
// as a new one; a fully drained member disappears). The copy's Score is
// zero — the old one described the old shape. Shared by the
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
// that cloud's working free cores). Such a plan places at most
// slotSum(free, cpw) workers, so the scheduler answers "can this gang fit?"
// itself and calls Choose only when the slot sum covers the job: the
// cycle's slot test on each queue entry and its tenant skip (queueUnfit),
// the what-if views of the reservation walk and of chooseVictims
// (whatIfPlan), and the backfill bound (backfillDoomed) all rest on this.
type PlacementPolicy interface {
	Name() string
	Choose(s *Scheduler, j *Job, v *CloudView) Plan
}

// slotSum returns Σ⌊f/cpw⌋ over the positive entries of free: the most
// cpw-core workers any plan that fits those free cores can place.
func slotSum(free []int, cpw int) int {
	slots := 0
	for _, f := range free {
		if f > 0 {
			slots += f / cpw
		}
	}
	return slots
}

// whatIfPlan asks the placement policy for j's plan on a what-if view (the
// reservation walk's future frees, chooseVictims' evicted cores), after the
// slot test: a view whose slot sum falls short of the gang gets no Choose
// call. That decides nothing differently. BestScore places whenever the
// slot sum covers the gang, and RandomPlacement, which needs one cloud with
// room for the whole gang, has none when the slot sum falls short, and then
// returns before its RNG draw.
func (s *Scheduler) whatIfPlan(j *Job, v *CloudView) Plan {
	if slotSum(v.free, j.coresPerWorker()) < j.workers() {
		return Plan{}
	}
	return s.cfg.Placement.Choose(s, j, v)
}

// placeScratch holds the buffers placement evaluations score plans in. The
// scheduler owns exactly one (Scheduler.place): Choose runs on the kernel
// thread, so evaluations never overlap and the buffers are reused across
// every call.
type placeScratch struct {
	oneMember   [1]Member
	oneIdx      [1]int
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
// score filled in; a plan that does not fit the view's free cores comes
// back infeasible (Score = -Inf; check Plan.Feasible, not the sign — a
// feasible shuffle-heavy plan can legitimately score below zero). idxs[k]
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
	var locality, capacity, input, shuffle float64
	for k, m := range members {
		i := idxs[k]
		share := float64(m.Workers*cpw) / float64(totalCores)
		capacity += capacityWeight * share * float64(v.free[i]) / float64(v.Clouds[i].TotalCores)
		locality += j.inputFraction(m.Cloud)
	}
	if locality > 1 {
		locality = 1
	}
	uncovered := 1 - locality
	locality *= localityWeight
	if j.Spec.InputSite != "" && uncovered > 0 {
		// The uncovered input streams from the input site; each member pays
		// its cores-weighted share of the bandwidth term.
		for _, m := range members {
			share := float64(m.Workers*cpw) / float64(totalCores)
			if m.Cloud == j.Spec.InputSite {
				continue
			}
			bw := s.B.Bandwidth(j.Spec.InputSite, m.Cloud)
			input += bandwidthWeight * boost * uncovered * share * bw / (bw + refBandwidth)
		}
	}
	if len(members) > 1 && !s.cfg.DisableShuffleCost {
		if secs := crossShuffleSeconds(s.B, j, members); secs > 0 {
			shuffle = boost * secs / (secs + refShuffleSeconds)
		}
	}
	p.Score = locality + capacity + input - shuffle
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

// Choose implements PlacementPolicy. Candidate plans are scored in the
// scheduler's placement scratch; only the winning plan's members are
// copied out, so a Choose that places nothing allocates nothing.
func (BestScore) Choose(s *Scheduler, j *Job, v *CloudView) Plan {
	ps := &s.place
	workers := j.workers()
	cpw := j.coresPerWorker()
	if best := scanSingleClouds(s, j, v, ps, workers, cpw); !best.Empty() {
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

// scanSingleClouds scores every single-cloud candidate through scorePlanIdx
// and returns the best plan — the common case, tried before any spanning
// search. The returned members alias ps.bestMembers; the caller copies what
// it keeps.
func scanSingleClouds(s *Scheduler, j *Job, v *CloudView, ps *placeScratch, workers, cpw int) Plan {
	var best Plan
	bestPrice := 0.0
	for i := range v.Clouds {
		ps.oneMember[0] = Member{Cloud: v.Clouds[i].Name, Workers: workers}
		ps.oneIdx[0] = i
		p := s.scorePlanIdx(j, ps.oneMember[:], ps.oneIdx[:], v)
		if !p.Feasible() {
			continue
		}
		price := planPriceIdx(p.Members, ps.oneIdx[:], v, cpw)
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
