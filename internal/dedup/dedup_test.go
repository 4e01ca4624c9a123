package dedup

import (
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
