package nvme

import "fmt"

// CIDAllocator hands out 16-bit command identifiers that are unique among
// outstanding commands of one queue pair, and recycles them on completion.
// NVMe requires CID uniqueness per SQ; the fabric layer additionally relies
// on it to match coalesced completions to pending requests.
//
// Every CID it issues is below max, so callers may index per-request
// tables of length max by CID. Alloc and Release never allocate.
type CIDAllocator struct {
	free []CID  // released CIDs, reissued last-in first-out
	used []bool // indexed by CID; len == max
	n    int    // outstanding CIDs
	next int    // lowest never-issued CID
}

// NewCIDAllocator creates an allocator for at most max outstanding CIDs
// (max <= 65536).
func NewCIDAllocator(max int) *CIDAllocator {
	if max <= 0 || max > 1<<16 {
		panic(fmt.Sprintf("nvme: CID allocator size %d out of range", max))
	}
	return &CIDAllocator{free: make([]CID, 0, max), used: make([]bool, max)}
}

// Alloc returns a fresh CID, or false if max CIDs are outstanding.
func (a *CIDAllocator) Alloc() (CID, bool) {
	if a.n >= len(a.used) {
		return 0, false
	}
	var cid CID
	if k := len(a.free); k > 0 {
		cid = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		// All n outstanding CIDs are below next, so next < max here.
		cid = CID(a.next)
		a.next++
	}
	a.used[cid] = true
	a.n++
	return cid, true
}

// Release returns a CID to the pool. Releasing a CID that is not
// outstanding (including one at or above max) is a protocol bug and
// reported as an error.
func (a *CIDAllocator) Release(cid CID) error {
	if int(cid) >= len(a.used) || !a.used[cid] {
		return fmt.Errorf("nvme: release of non-outstanding CID %d", cid)
	}
	a.used[cid] = false
	a.n--
	a.free = append(a.free, cid)
	return nil
}

// Outstanding returns the number of live CIDs.
func (a *CIDAllocator) Outstanding() int { return a.n }
