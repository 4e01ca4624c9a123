package dedup

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

func TestAdmitRegister(t *testing.T) {
	r := NewRegistry("site:test")
	c := vm.ContentID(42)
	if r.Admit(c) {
		t.Fatal("empty registry reported a hit")
	}
	if !r.Admit(c) {
		t.Fatal("admitted content not found")
	}
	if r.Hits != 1 || r.Misses != 1 || r.Registrations != 1 || r.Len() != 1 {
		t.Fatalf("counters hits=%d misses=%d regs=%d len=%d", r.Hits, r.Misses, r.Registrations, r.Len())
	}
	// Registering present content changes nothing.
	r.Register(c)
	if r.Registrations != 1 || r.Len() != 1 {
		t.Fatal("duplicate Register changed state")
	}
	// Registered content is a hit without a second registration.
	d := vm.ContentID(43)
	r.Register(d)
	if !r.Admit(d) {
		t.Fatal("registered content not found")
	}
	if r.Hits != 2 || r.Misses != 1 || r.Registrations != 2 || r.Len() != 2 {
		t.Fatalf("counters hits=%d misses=%d regs=%d len=%d", r.Hits, r.Misses, r.Registrations, r.Len())
	}
}

func TestContainsDoesNotCount(t *testing.T) {
	r := NewRegistry("s")
	r.Register(7)
	_ = r.Contains(7)
	_ = r.Contains(8)
	if r.Hits != 0 || r.Misses != 0 {
		t.Fatal("Contains must not touch counters")
	}
}

func TestSeedFromDisk(t *testing.T) {
	m := vm.NewContentModel(1, "img", 0, 0.9, 50)
	d := vm.NewDiskImage("base", 500, 4096, m)
	r := NewRegistry("s")
	r.SeedFromDisk(d)
	for i := 0; i < d.NumBlocks(); i++ {
		if !r.Contains(d.Read(i)) {
			t.Fatalf("block %d missing after seed", i)
		}
	}
}

// Property: after registering any set, every member is a hit and Len equals
// the number of distinct elements.
func TestPropRegistryComplete(t *testing.T) {
	f := func(ids []uint32) bool {
		r := NewRegistry("p")
		distinct := make(map[vm.ContentID]bool)
		for _, id := range ids {
			c := vm.ContentID(id)
			r.Register(c)
			distinct[c] = true
		}
		for c := range distinct {
			if !r.Contains(c) {
				return false
			}
		}
		return r.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryMatchesMapOracle drives the set and a Go map with the same
// random mix of Admit, Register and Contains over the content shapes the
// simulator produces: the zero page, shared-pool IDs (one image base with
// the pool index at bit 20 and up, so every low 20 bits agree), unique IDs
// (bit 63 set, sequential low bits) and random IDs. Every result, Len and
// counter must match at every step while the table doubles many times.
func TestRegistryMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base = 0x2545f4914f6cdd1d
	random := make([]vm.ContentID, 4096)
	for i := range random {
		random[i] = vm.ContentID(rng.Uint64())
	}
	draw := func() vm.ContentID {
		switch x := rng.Intn(20); {
		case x == 0:
			return vm.ZeroPage
		case x < 8:
			return vm.ContentID(base ^ uint64(rng.Intn(4096)+1)<<20)
		case x < 15:
			return vm.ContentID(1<<63 | base ^ uint64(rng.Intn(8192)+1)<<1)
		default:
			return random[rng.Intn(len(random))]
		}
	}
	r := NewRegistry("oracle")
	oracle := make(map[vm.ContentID]struct{})
	var hits, misses, regs int64
	for step := 0; step < 60000; step++ {
		c := draw()
		_, had := oracle[c]
		switch rng.Intn(3) {
		case 0:
			if got := r.Admit(c); got != had {
				t.Fatalf("step %d: Admit(%#x) = %v, oracle %v", step, c, got, had)
			}
			if had {
				hits++
			} else {
				misses++
				regs++
			}
		case 1:
			r.Register(c)
			if !had {
				regs++
			}
		default:
			if got := r.Contains(c); got != had {
				t.Fatalf("step %d: Contains(%#x) = %v, oracle %v", step, c, got, had)
			}
			continue
		}
		oracle[c] = struct{}{}
		if r.Len() != len(oracle) || r.Hits != hits || r.Misses != misses || r.Registrations != regs {
			t.Fatalf("step %d: len=%d hits=%d misses=%d regs=%d, oracle %d %d %d %d", step,
				r.Len(), r.Hits, r.Misses, r.Registrations, len(oracle), hits, misses, regs)
		}
	}
	if len(r.slots) < minSlots<<3 {
		t.Fatalf("table has %d slots: the run covered fewer than three doublings", len(r.slots))
	}
	for c := range oracle {
		if !r.Contains(c) {
			t.Fatalf("%#x lost", c)
		}
	}
}

// longestRun returns the longest stretch of consecutive occupied slots,
// wrapping at the end of the table: the most probes any lookup can make.
func longestRun(r *Registry) int {
	n := len(r.slots)
	longest, run := 0, 0
	for i := 0; i < 2*n && run < n; i++ {
		if r.slots[i%n] == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

// TestRegistryProbeRunsStayShort admits what an E4-style 8-VM cluster
// migration admits, 8 models' pages plus rewritten unique pages, and bounds
// the longest probe run. Hashing on low bits would put each image's pool,
// whose IDs share their low 20 bits, into one run thousands of slots long.
func TestRegistryProbeRunsStayShort(t *testing.T) {
	r := NewRegistry("site:dst")
	for i := 0; i < 8; i++ {
		m := vm.NewContentModel(42+int64(i)*31, "debian", 0.10, 0.35, 8192)
		for j := 0; j < 16384; j++ {
			r.Admit(m.Next())
		}
		for j := 0; j < 1000; j++ {
			r.Admit(m.FreshUnique())
		}
	}
	got := longestRun(r)
	if got > 32 {
		t.Fatalf("longest probe run %d slots at %d of %d slots used, want at most 32", got, r.Len(), len(r.slots))
	}
	t.Logf("longest probe run %d slots at %d of %d slots used", got, r.Len(), len(r.slots))
}
