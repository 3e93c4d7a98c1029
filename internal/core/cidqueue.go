// Package core implements the paper's primary contribution: the NVMe-oPF
// Priority Managers. A target-side PM keeps one isolated, zero-copy
// (CID-only) queue per tenant, executes latency-sensitive requests
// immediately, batches throughput-critical requests until a draining
// request arrives, and coalesces the batch's completion notifications into
// a single response (§III, Fig. 5 Algorithms 1–4). A host-side PM stamps
// priority flags, auto-inserts draining flags every window, and replays
// coalesced completions over its local pending queue, which also
// reconciles out-of-order device completions (§IV-C). The window-size
// optimizer (§IV-D) provides both the static selection table and the
// dynamic runtime tuner.
package core

import "nvmeopf/internal/nvme"

// CIDQueue is a growable FIFO ring of 16-bit command identifiers. It is
// the "zero-copy queue" of §IV-B: the priority managers never store
// request payloads or request structs, only CIDs, so PM memory does not
// grow with I/O size and stays tiny per tenant.
//
// The zero value is ready to use.
type CIDQueue struct {
	buf  []nvme.CID
	head int
	n    int
}

// Len returns the number of queued CIDs.
func (q *CIDQueue) Len() int { return q.n }

// Empty reports whether the queue is empty.
func (q *CIDQueue) Empty() bool { return q.n == 0 }

// Push appends a CID.
func (q *CIDQueue) Push(cid nvme.CID) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = cid
	q.n++
}

func (q *CIDQueue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]nvme.CID, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Front returns the oldest CID without removing it.
func (q *CIDQueue) Front() (nvme.CID, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.buf[q.head], true
}

// PopFront removes and returns the oldest CID.
func (q *CIDQueue) PopFront() (nvme.CID, bool) {
	if q.n == 0 {
		return 0, false
	}
	cid := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return cid, true
}

// PopAll removes and returns every queued CID in FIFO order (the target
// PM's drain execution).
func (q *CIDQueue) PopAll() []nvme.CID {
	if q.n == 0 {
		return nil
	}
	out := make([]nvme.CID, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.head = 0
	q.n = 0
	return out
}

// DrainThrough removes, in FIFO order, every CID up to and including the
// first occurrence of cid (Alg. 2: "loop through the queue of pending
// requests until the ID of the request matches with the received
// response") and appends them to dst, returning the extended slice. If
// cid is not present the queue is left untouched, dst is returned as is,
// and ok is false — a coalesced completion naming an unknown CID is a
// protocol violation the caller must surface, not silently absorb.
func (q *CIDQueue) DrainThrough(dst []nvme.CID, cid nvme.CID) (drained []nvme.CID, ok bool) {
	idx := -1
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)%len(q.buf)] == cid {
			idx = i
			break
		}
	}
	if idx < 0 {
		return dst, false
	}
	for i := 0; i <= idx; i++ {
		dst = append(dst, q.buf[(q.head+i)%len(q.buf)])
	}
	q.head = (q.head + idx + 1) % len(q.buf)
	q.n -= idx + 1
	return dst, true
}

// Remove deletes the first occurrence of cid, preserving order of the
// rest. It is used for non-coalesced (per-request) completions of TC
// requests, e.g. individual error responses.
func (q *CIDQueue) Remove(cid nvme.CID) bool {
	idx := -1
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)%len(q.buf)] == cid {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	// Shift the tail segment left by one.
	for i := idx; i < q.n-1; i++ {
		q.buf[(q.head+i)%len(q.buf)] = q.buf[(q.head+i+1)%len(q.buf)]
	}
	q.n--
	return true
}

// Contains reports whether cid is queued.
func (q *CIDQueue) Contains(cid nvme.CID) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)%len(q.buf)] == cid {
			return true
		}
	}
	return false
}

// Snapshot returns the queued CIDs in FIFO order without mutating the
// queue (diagnostics/tests).
func (q *CIDQueue) Snapshot() []nvme.CID {
	out := make([]nvme.CID, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}
