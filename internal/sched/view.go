package sched

// CloudView is the scheduler's per-cycle indexed view of backend capacity:
// the cloud snapshot in backend order, a name→position index, and the
// working free-core vector the cycle decrements as it dispatches. One view
// is built per scheduling cycle and shared by every placement score, price
// lookup, and runtime estimate in that cycle — before it existed, ScorePlan
// rebuilt a name→info map per candidate plan and planPrice /
// planEstimateSeconds ran O(members × clouds) nested scans.
//
// The scheduler owns its views and reuses their storage across cycles; the
// name index is rebuilt only when the cloud list changes shape.
type CloudView struct {
	// Clouds is the backend capacity snapshot, in backend order. FreeCores
	// is the snapshot value; the working vector free moves as the cycle
	// dispatches.
	Clouds []CloudInfo

	free  []int
	pos   map[string]int
	names []string // index cache key: pos is valid for exactly these names
}

// Reset points the view at a fresh snapshot and reloads the working free
// vector from it. The name index is reused when the cloud names are
// unchanged (the common case).
func (v *CloudView) Reset(snap []CloudInfo) {
	v.Clouds = snap
	v.free = v.free[:0]
	same := len(v.names) == len(snap)
	for i, c := range snap {
		v.free = append(v.free, c.FreeCores)
		if same && v.names[i] != c.Name {
			same = false
		}
	}
	if same {
		return
	}
	v.names = v.names[:0]
	if v.pos == nil {
		v.pos = make(map[string]int, len(snap))
	} else {
		clear(v.pos)
	}
	for i, c := range snap {
		v.names = append(v.names, c.Name)
		v.pos[c.Name] = i
	}
}

// shareIndex makes v an alias of src's snapshot and name index with its own
// copy of the working free vector — reserve() probes hypothetical future
// availability without disturbing the cycle's vector.
func (v *CloudView) shareIndex(src *CloudView) {
	v.Clouds, v.pos, v.names = src.Clouds, src.pos, src.names
	v.free = append(v.free[:0], src.free...)
}

// posSmallMax is the federation size up to which Pos scans the name slice
// instead of hashing into the map: snapshot names alias the same string
// headers cycle after cycle, so the scan usually resolves on pointer-equal
// comparisons and beats the hash for small cloud counts.
const posSmallMax = 8

// Pos returns the cloud's position in Clouds, or -1 when unknown.
func (v *CloudView) Pos(name string) int {
	if len(v.names) <= posSmallMax {
		for i, n := range v.names {
			if n == name {
				return i
			}
		}
		return -1
	}
	if i, ok := v.pos[name]; ok {
		return i
	}
	return -1
}

// take decrements the working free vector for a dispatched plan slice.
func (v *CloudView) take(name string, cores int) {
	if i := v.Pos(name); i >= 0 {
		v.free[i] -= cores
	}
}

// viewOf wraps an ad-hoc (clouds, free-map) pair as a CloudView — the
// compatibility path for the exported ScorePlan signature tests use;
// the scheduler's own cycles build views with Reset instead.
func viewOf(clouds []CloudInfo, free map[string]int) CloudView {
	var v CloudView
	v.Reset(clouds)
	for i, c := range clouds {
		v.free[i] = free[c.Name]
	}
	return v
}
