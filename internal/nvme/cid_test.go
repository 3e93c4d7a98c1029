package nvme

import (
	"testing"
	"testing/quick"
)

func TestCIDAllocatorUnique(t *testing.T) {
	a := NewCIDAllocator(128)
	seen := make(map[CID]bool)
	for i := 0; i < 128; i++ {
		cid, ok := a.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[cid] {
			t.Fatalf("duplicate CID %d", cid)
		}
		seen[cid] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc beyond max succeeded")
	}
	if a.Outstanding() != 128 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestCIDAllocatorRecycle(t *testing.T) {
	a := NewCIDAllocator(2)
	c1, _ := a.Alloc()
	c2, _ := a.Alloc()
	if err := a.Release(c1); err != nil {
		t.Fatal(err)
	}
	c3, ok := a.Alloc()
	if !ok {
		t.Fatal("alloc after release failed")
	}
	if c3 != c1 {
		t.Fatalf("expected recycled CID %d, got %d", c1, c3)
	}
	if err := a.Release(c1); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(c1); err == nil {
		t.Fatal("double release succeeded")
	}
	if err := a.Release(c2); err != nil {
		t.Fatal(err)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestCIDAllocatorPanicsOnBadMax(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for max=%d", n)
				}
			}()
			NewCIDAllocator(n)
		}()
	}
}

// Property: alloc/release in arbitrary order never hands out a CID that is
// currently outstanding.
func TestCIDAllocatorProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewCIDAllocator(16)
		live := map[CID]bool{}
		var liveList []CID
		for _, alloc := range ops {
			if alloc {
				cid, ok := a.Alloc()
				if ok != (len(live) < 16) {
					return false
				}
				if ok {
					if live[cid] {
						return false // duplicate!
					}
					live[cid] = true
					liveList = append(liveList, cid)
				}
			} else if len(liveList) > 0 {
				cid := liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				delete(live, cid)
				if a.Release(cid) != nil {
					return false
				}
			}
			if a.Outstanding() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCIDAllocatorOutOfRangeRelease: a CID at or above the allocator size
// was never issued, so releasing it is an error, not an index panic.
func TestCIDAllocatorOutOfRangeRelease(t *testing.T) {
	a := NewCIDAllocator(8)
	for _, cid := range []CID{8, 9, 65535} {
		if err := a.Release(cid); err == nil {
			t.Errorf("release of never-issued CID %d succeeded", cid)
		}
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

// TestCIDAllocatorZeroAlloc pins Alloc/Release at zero allocations: the
// allocator sits on every IO's submit and completion path.
func TestCIDAllocatorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := NewCIDAllocator(128)
	var held [128]CID
	allocs := testing.AllocsPerRun(100, func() {
		for i := range held {
			held[i], _ = a.Alloc()
		}
		for i := len(held) - 1; i >= 0; i-- {
			_ = a.Release(held[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("Alloc/Release: %v allocs per 128-CID cycle, want 0", allocs)
	}
}
