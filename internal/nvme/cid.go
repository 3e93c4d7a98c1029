package nvme

import "fmt"

// CIDAllocator hands out 16-bit command identifiers that are unique among
// outstanding commands of one queue pair, and recycles them on completion.
// NVMe requires CID uniqueness per SQ; the fabric layer additionally relies
// on it to match coalesced completions to pending requests.
type CIDAllocator struct {
	free []CID
	used map[CID]bool
	next CID
	max  int
}

// NewCIDAllocator creates an allocator for at most max outstanding CIDs
// (max <= 65536).
func NewCIDAllocator(max int) *CIDAllocator {
	if max <= 0 || max > 1<<16 {
		panic(fmt.Sprintf("nvme: CID allocator size %d out of range", max))
	}
	return &CIDAllocator{used: make(map[CID]bool, max), max: max}
}

// Alloc returns a fresh CID, or false if max CIDs are outstanding.
func (a *CIDAllocator) Alloc() (CID, bool) {
	if len(a.used) >= a.max {
		return 0, false
	}
	if n := len(a.free); n > 0 {
		cid := a.free[n-1]
		a.free = a.free[:n-1]
		a.used[cid] = true
		return cid, true
	}
	cid := a.next
	a.next++
	a.used[cid] = true
	return cid, true
}

// Release returns a CID to the pool. Releasing a CID that is not
// outstanding is a protocol bug and reported as an error.
func (a *CIDAllocator) Release(cid CID) error {
	if !a.used[cid] {
		return fmt.Errorf("nvme: release of non-outstanding CID %d", cid)
	}
	delete(a.used, cid)
	a.free = append(a.free, cid)
	return nil
}

// Outstanding returns the number of live CIDs.
func (a *CIDAllocator) Outstanding() int { return len(a.used) }
