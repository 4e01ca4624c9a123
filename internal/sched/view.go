package sched

// CloudView is the scheduler's per-cycle view of backend capacity: the
// cloud snapshot in backend order and the working free-core vector the
// cycle decrements as it dispatches. One view is built per scheduling cycle
// and shared by every placement score, price lookup, and runtime estimate
// in that cycle.
//
// The scheduler owns its views and reuses their storage across cycles.
type CloudView struct {
	// Clouds is the backend capacity snapshot, in backend order. FreeCores
	// is the snapshot value; the working vector free moves as the cycle
	// dispatches.
	Clouds []CloudInfo

	free []int
}

// Reset points the view at a fresh snapshot and reloads the working free
// vector from it.
func (v *CloudView) Reset(snap []CloudInfo) {
	v.Clouds = snap
	v.free = v.free[:0]
	for _, c := range snap {
		v.free = append(v.free, c.FreeCores)
	}
}

// shareIndex makes v an alias of src's snapshot with its own copy of the
// working free vector — reserve() probes hypothetical future availability
// without disturbing the cycle's vector.
func (v *CloudView) shareIndex(src *CloudView) {
	v.Clouds = src.Clouds
	v.free = append(v.free[:0], src.free...)
}

// Pos returns the cloud's position in Clouds, or -1 when unknown.
// Snapshot names alias the same string headers cycle after cycle, so the
// scan usually resolves on pointer-equal comparisons.
func (v *CloudView) Pos(name string) int {
	for i := range v.Clouds {
		if v.Clouds[i].Name == name {
			return i
		}
	}
	return -1
}

// take decrements the working free vector for a dispatched plan slice.
func (v *CloudView) take(name string, cores int) {
	if i := v.Pos(name); i >= 0 {
		v.free[i] -= cores
	}
}
