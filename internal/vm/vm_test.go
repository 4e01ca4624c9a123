package vm

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestContentModelFractions(t *testing.T) {
	m := NewContentModel(1, "debian", 0.3, 0.4, 1000)
	const n = 100000
	zero, shared, unique := 0, 0, 0
	seen := make(map[ContentID]int)
	for i := 0; i < n; i++ {
		c := m.Next()
		seen[c]++
		switch {
		case c == ZeroPage:
			zero++
		case c&(1<<63) != 0:
			unique++
		default:
			shared++
		}
	}
	frac := func(x int) float64 { return float64(x) / n }
	if f := frac(zero); f < 0.28 || f > 0.32 {
		t.Fatalf("zero fraction %.3f, want ~0.30", f)
	}
	if f := frac(shared); f < 0.38 || f > 0.42 {
		t.Fatalf("shared fraction %.3f, want ~0.40", f)
	}
	if f := frac(unique); f < 0.28 || f > 0.32 {
		t.Fatalf("unique fraction %.3f, want ~0.30", f)
	}
}

func TestContentModelUniquePagesNeverRepeat(t *testing.T) {
	m := NewContentModel(1, "img", 0, 0, 1)
	seen := make(map[ContentID]bool)
	for i := 0; i < 10000; i++ {
		c := m.Next()
		if seen[c] {
			t.Fatalf("unique content repeated: %d", c)
		}
		seen[c] = true
	}
}

func TestContentModelSharedAcrossVMs(t *testing.T) {
	// Two models with the same image share the pool; different images don't.
	a := NewContentModel(1, "debian", 0, 1, 64)
	b := NewContentModel(2, "debian", 0, 1, 64)
	c := NewContentModel(3, "centos", 0, 1, 64)
	poolA := make(map[ContentID]bool)
	for i := 0; i < 1000; i++ {
		poolA[a.Next()] = true
	}
	hitsB, hitsC := 0, 0
	for i := 0; i < 1000; i++ {
		if poolA[b.Next()] {
			hitsB++
		}
		if poolA[c.Next()] {
			hitsC++
		}
	}
	if hitsB < 900 {
		t.Fatalf("same-image VMs share only %d/1000 pages", hitsB)
	}
	if hitsC != 0 {
		t.Fatalf("different-image VMs share %d pages, want 0", hitsC)
	}
}

func TestMemoryDirtyTracking(t *testing.T) {
	for _, tc := range []struct {
		n      int
		writes []int // a page written twice must count once
		want   []int
	}{
		{100, []int{5, 5, 7}, []int{5, 7}},
		// Both edges of the first word boundary and the last page of a
		// memory whose last word is partly used.
		{130, []int{129, 64, 0, 63, 64}, []int{0, 63, 64, 129}},
	} {
		m := NewContentModel(1, "img", 0, 0.5, 100)
		mem := NewMemory(tc.n, m)
		if mem.DirtyCount() != 0 {
			t.Fatal("fresh memory should be clean")
		}
		for _, i := range tc.writes {
			mem.Write(i, m.FreshUnique())
		}
		if mem.DirtyCount() != len(tc.want) {
			t.Fatalf("n=%d: dirty count %d, want %d", tc.n, mem.DirtyCount(), len(tc.want))
		}
		if pages := mem.DirtyPages(); !slices.Equal(pages, tc.want) {
			t.Fatalf("n=%d: dirty pages %v, want %v", tc.n, pages, tc.want)
		}
		mem.ClearDirty()
		if mem.DirtyCount() != 0 || len(mem.DirtyPages()) != 0 {
			t.Fatal("ClearDirty did not reset")
		}
		last := tc.want[len(tc.want)-1]
		mem.Write(last, m.FreshUnique())
		if pages := mem.DirtyPages(); !slices.Equal(pages, []int{last}) || mem.DirtyCount() != 1 {
			t.Fatalf("n=%d: after ClearDirty and one write, dirty pages %v count %d", tc.n, pages, mem.DirtyCount())
		}
	}
}

// TestDeferredPagesKeepEagerContents: whatever order a model's memories,
// flat disk image and workload are created and used in, every page, block
// and draw equals an eager reference whose memories are drawn with Next
// when created, from a model with the same seed.
func TestDeferredPagesKeepEagerContents(t *testing.T) {
	type world struct {
		m       *ContentModel
		newMem  func(n int) *Memory
		a, b    *Memory
		disk    *DiskImage
		w       *Workload
		uniques []ContentID
	}
	newA := func(x *world) { x.a = x.newMem(300) }
	newB := func(x *world) { x.b = x.newMem(200) }
	newDisk := func(x *world) { x.disk = NewDiskImage("d", 40, 4096, x.m) }
	newW := func(x *world) { x.w = NewWorkload("w", 400, 0.5, 0.8, 0.3, x.m, 3) }
	readA := func(x *world) { _ = x.a.Page(299) }
	readB := func(x *world) { _ = x.b.Page(0) }
	dirtyA := func(x *world) { x.w.ApplyDirtying(x.a, 0.5) }
	dirtyB := func(x *world) { x.w.ApplyDirtying(x.b, 0.5) }
	fresh := func(x *world) { x.uniques = append(x.uniques, x.m.FreshUnique()) }
	for _, tc := range []struct {
		name  string
		steps []func(*world)
	}{
		{"second memory read first", []func(*world){newA, newB, newW, readB, readA, newDisk, dirtyA, fresh}},
		{"draws before any read", []func(*world){newA, newB, newW, fresh, dirtyB, newDisk, readB, readA}},
		{"disk between memories", []func(*world){newA, newDisk, newB, newW, dirtyB, readA, fresh, dirtyA}},
		{"dirtying first", []func(*world){newA, newB, newW, dirtyB, dirtyA, readA, readB, newDisk, fresh}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := func() *ContentModel { return NewContentModel(11, "debian", 0.2, 0.4, 64) }
			lazy := &world{m: model()}
			lazy.newMem = func(n int) *Memory { return NewMemory(n, lazy.m) }
			ref := &world{m: model()}
			ref.newMem = func(n int) *Memory {
				mem := &Memory{n: n, pages: make([]ContentID, n), dirty: make([]uint64, (n+63)/64)}
				for i := range mem.pages {
					mem.pages[i] = ref.m.Next()
				}
				return mem
			}
			for _, step := range tc.steps {
				step(lazy)
				step(ref)
			}
			for _, p := range []struct {
				name      string
				got, want *Memory
			}{{"a", lazy.a, ref.a}, {"b", lazy.b, ref.b}} {
				for i := 0; i < p.want.NumPages(); i++ {
					if p.got.Page(i) != p.want.Page(i) {
						t.Fatalf("memory %s page %d = %#x, want %#x", p.name, i, p.got.Page(i), p.want.Page(i))
					}
				}
				if got, want := p.got.DirtyPages(), p.want.DirtyPages(); !slices.Equal(got, want) {
					t.Fatalf("memory %s dirty pages %v, want %v", p.name, got, want)
				}
			}
			for i := 0; i < ref.disk.NumBlocks(); i++ {
				if lazy.disk.Read(i) != ref.disk.Read(i) {
					t.Fatalf("disk block %d = %#x, want %#x", i, lazy.disk.Read(i), ref.disk.Read(i))
				}
			}
			if !slices.Equal(lazy.uniques, ref.uniques) {
				t.Fatalf("FreshUnique returned %#x, want %#x", lazy.uniques, ref.uniques)
			}
		})
	}
}

// TestMemorySizeDrawsNothing: reading a fresh memory's size neither draws
// its pages nor seeds its model's stream.
func TestMemorySizeDrawsNothing(t *testing.T) {
	m := NewContentModel(1, "img", 0.1, 0.5, 100)
	mem := NewMemory(4096, m)
	if mem.NumPages() != 4096 || mem.Bytes() != 4096*PageSize {
		t.Fatalf("size %d pages, %d bytes", mem.NumPages(), mem.Bytes())
	}
	if mem.pages != nil || m.rng != nil {
		t.Fatal("NumPages/Bytes drew the memory's pages or seeded its model")
	}
}

func TestDiskCoWSemantics(t *testing.T) {
	m := NewContentModel(1, "img", 0, 0, 1)
	base := NewDiskImage("base", 100, 65536, m)
	cow := NewCoWImage("vm0-disk", base)
	if !cow.IsCoW() || cow.NumBlocks() != 100 || cow.OverlayBlocks() != 0 {
		t.Fatal("fresh CoW image wrong shape")
	}
	// Reads fall through.
	if cow.Read(3) != base.Read(3) {
		t.Fatal("CoW read did not fall through to base")
	}
	// Writes populate the overlay without touching the base.
	before := base.Read(3)
	newC := m.FreshUnique()
	cow.WriteBlock(3, newC)
	if cow.Read(3) != newC {
		t.Fatal("CoW write not visible")
	}
	if base.Read(3) != before {
		t.Fatal("CoW write leaked into base")
	}
	if cow.OverlayBlocks() != 1 || cow.OverlayBytes() != 65536 {
		t.Fatalf("overlay accounting: %d blocks", cow.OverlayBlocks())
	}
}

func TestVMConstruction(t *testing.T) {
	m := NewContentModel(1, "debian", 0.2, 0.4, 100)
	disk := NewDiskImage("debian", 10, 65536, m)
	v := New("vm0", "debian", 2, 1024, m, disk)
	if v.MemBytes() != 1024*PageSize {
		t.Fatalf("mem bytes %d", v.MemBytes())
	}
	if v.State != StatePending {
		t.Fatalf("initial state %v", v.State)
	}
	if v.State.String() != "pending" {
		t.Fatalf("state string %q", v.State.String())
	}
}

func TestWorkloadDirtyRate(t *testing.T) {
	m := NewContentModel(1, "img", 0, 0.3, 100)
	mem := NewMemory(50000, m)
	w := NewWorkload("test", 1000, 1.0, 0, 0, m, 42) // uniform, 1000 writes/s
	writes := w.ApplyDirtying(mem, 2.0)
	if writes != 2000 {
		t.Fatalf("writes %d, want 2000", writes)
	}
	// With 2000 uniform writes over 50000 pages, nearly all distinct.
	if d := mem.DirtyCount(); d < 1900 || d > 2000 {
		t.Fatalf("distinct dirty pages %d", d)
	}
}

func TestWorkloadLocalityBoundsDirtySet(t *testing.T) {
	m := NewContentModel(1, "img", 0, 0.3, 100)
	mem := NewMemory(10000, m)
	// All writes in a 100-page hot set.
	w := NewWorkload("hot", 100000, 0.01, 1.0, 0, m, 42)
	w.ApplyDirtying(mem, 1.0)
	if d := mem.DirtyCount(); d > 100 {
		t.Fatalf("dirty set %d escaped 100-page hot set", d)
	}
}

func TestWorkloadFractionalCarry(t *testing.T) {
	m := NewContentModel(1, "img", 0, 0, 1)
	mem := NewMemory(1000, m)
	w := NewWorkload("slow", 1, 1, 0, 0, m, 1) // 1 write/s
	total := 0
	for i := 0; i < 10; i++ {
		total += w.ApplyDirtying(mem, 0.25) // quarter-second spans
	}
	// 10 * 0.25s at 1/s = 2.5 writes; carry must avoid losing them all.
	if total != 2 {
		t.Fatalf("carried writes %d, want 2", total)
	}
}

func TestWorkloadPresets(t *testing.T) {
	m := NewContentModel(1, "img", 0.1, 0.4, 1000)
	for _, w := range []*Workload{IdleWorkload(m, 1), WebServerWorkload(m, 2), KernelBuildWorkload(m, 3)} {
		if w.RatePagesPerSec <= 0 || w.HotFrac <= 0 || w.HotFrac > 1 {
			t.Fatalf("preset %s has invalid parameters", w.Name)
		}
	}
	if IdleWorkload(m, 1).RatePagesPerSec >= KernelBuildWorkload(m, 1).RatePagesPerSec {
		t.Fatal("idle should dirty slower than kernel build")
	}
}

// Property: ApplyDirtying never dirties more distinct pages than write ops
// or memory size.
func TestPropDirtyBounded(t *testing.T) {
	f := func(rate uint16, span uint8) bool {
		m := NewContentModel(1, "img", 0, 0.5, 50)
		mem := NewMemory(500, m)
		w := NewWorkload("p", float64(rate), 0.5, 0.8, 0.5, m, 7)
		sec := float64(span) / 10
		writes := w.ApplyDirtying(mem, sec)
		d := mem.DirtyCount()
		return d <= writes+1 && d <= mem.NumPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: CoW overlay size never exceeds number of distinct blocks written.
func TestPropCoWOverlayBounded(t *testing.T) {
	f := func(writes []uint8) bool {
		m := NewContentModel(1, "img", 0, 0, 1)
		base := NewDiskImage("b", 256, 4096, m)
		cow := NewCoWImage("c", base)
		distinct := make(map[int]bool)
		for _, wblk := range writes {
			cow.WriteBlock(int(wblk), m.FreshUnique())
			distinct[int(wblk)] = true
		}
		return cow.OverlayBlocks() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
