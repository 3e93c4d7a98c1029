package core

import (
	"testing"
	"testing/quick"

	"nvmeopf/internal/nvme"
)

func TestCIDQueueFIFO(t *testing.T) {
	var q CIDQueue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(nvme.CID(i))
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	if f, ok := q.Front(); !ok || f != 0 {
		t.Fatalf("front = %d, %v", f, ok)
	}
	for i := 0; i < 100; i++ {
		cid, ok := q.PopFront()
		if !ok || cid != nvme.CID(i) {
			t.Fatalf("pop %d: %d, %v", i, cid, ok)
		}
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if _, ok := q.Front(); ok {
		t.Fatal("front of empty succeeded")
	}
}

func TestCIDQueueWrapGrow(t *testing.T) {
	var q CIDQueue
	// Interleave pushes and pops to exercise wrap-around, then force
	// growth mid-wrap.
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(nvme.CID(next))
			next++
		}
		for i := 0; i < 3; i++ {
			cid, ok := q.PopFront()
			if !ok || cid != nvme.CID(expect) {
				t.Fatalf("round %d: got %d want %d", round, cid, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		cid, _ := q.PopFront()
		if cid != nvme.CID(expect) {
			t.Fatalf("drain: got %d want %d", cid, expect)
		}
		expect++
	}
	if next != expect {
		t.Fatalf("pushed %d popped %d", next, expect)
	}
}

func TestCIDQueuePopAll(t *testing.T) {
	var q CIDQueue
	if q.PopAll() != nil {
		t.Fatal("PopAll on empty should be nil")
	}
	for i := 0; i < 5; i++ {
		q.Push(nvme.CID(i * 10))
	}
	all := q.PopAll()
	if len(all) != 5 || !q.Empty() {
		t.Fatalf("PopAll = %v, empty=%v", all, q.Empty())
	}
	for i, cid := range all {
		if cid != nvme.CID(i*10) {
			t.Fatalf("order broken: %v", all)
		}
	}
}

func TestCIDQueueDrainThrough(t *testing.T) {
	var q CIDQueue
	for i := 0; i < 10; i++ {
		q.Push(nvme.CID(i))
	}
	drained, ok := q.DrainThrough(nil, 4)
	if !ok || len(drained) != 5 {
		t.Fatalf("drained = %v, ok=%v", drained, ok)
	}
	for i, cid := range drained {
		if cid != nvme.CID(i) {
			t.Fatalf("drain order broken: %v", drained)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("remaining = %d", q.Len())
	}
	if f, _ := q.Front(); f != 5 {
		t.Fatalf("front after drain = %d", f)
	}
	// Unknown CID must not mutate.
	if _, ok := q.DrainThrough(nil, 99); ok {
		t.Fatal("unknown CID drained")
	}
	if q.Len() != 5 {
		t.Fatal("failed drain mutated queue")
	}
}

func TestCIDQueueDrainThroughFirstOccurrence(t *testing.T) {
	var q CIDQueue
	for _, cid := range []nvme.CID{7, 3, 7, 9} {
		q.Push(cid)
	}
	drained, ok := q.DrainThrough(nil, 7)
	if !ok || len(drained) != 1 || drained[0] != 7 {
		t.Fatalf("drained = %v", drained)
	}
	if q.Len() != 3 {
		t.Fatalf("remaining = %d", q.Len())
	}
}

func TestCIDQueueRemove(t *testing.T) {
	var q CIDQueue
	for i := 0; i < 6; i++ {
		q.Push(nvme.CID(i))
	}
	if !q.Remove(3) {
		t.Fatal("remove failed")
	}
	if q.Remove(3) {
		t.Fatal("double remove succeeded")
	}
	want := []nvme.CID{0, 1, 2, 4, 5}
	got := q.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after remove = %v, want %v", got, want)
		}
	}
	if !q.Remove(0) || !q.Remove(5) {
		t.Fatal("remove at ends failed")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestCIDQueueContains(t *testing.T) {
	var q CIDQueue
	q.Push(5)
	if !q.Contains(5) || q.Contains(6) {
		t.Fatal("contains wrong")
	}
}

// Property: the queue behaves like a slice model under arbitrary
// push/pop/drain/remove sequences.
func TestCIDQueueModelProperty(t *testing.T) {
	type op struct {
		Kind byte
		Arg  nvme.CID
	}
	f := func(ops []op) bool {
		var q CIDQueue
		var model []nvme.CID
		next := nvme.CID(0)
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0: // push
				q.Push(next)
				model = append(model, next)
				next++
			case 1: // pop
				cid, ok := q.PopFront()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if cid != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2: // drain through a (maybe present) cid
				target := o.Arg % (next + 1)
				drained, ok := q.DrainThrough(nil, target)
				idx := -1
				for i, m := range model {
					if m == target {
						idx = i
						break
					}
				}
				if ok != (idx >= 0) {
					return false
				}
				if ok {
					if len(drained) != idx+1 {
						return false
					}
					for i := 0; i <= idx; i++ {
						if drained[i] != model[i] {
							return false
						}
					}
					model = model[idx+1:]
				}
			case 3: // remove
				target := o.Arg % (next + 1)
				ok := q.Remove(target)
				idx := -1
				for i, m := range model {
					if m == target {
						idx = i
						break
					}
				}
				if ok != (idx >= 0) {
					return false
				}
				if ok {
					model = append(model[:idx], model[idx+1:]...)
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		// Final order check.
		snap := q.Snapshot()
		for i := range model {
			if snap[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
