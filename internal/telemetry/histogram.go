package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"

	"nvmeopf/internal/proto"
)

// Class buckets the latency instruments by tenant class: the paper's
// LS/TC split plus this dialect's scavenger (best-effort) class.
// Legacy/normal traffic accounts under ClassTC: it shares the
// FIFO/batched execution path, so its latency belongs with the
// throughput-critical population, not the bypass one.
type Class uint8

// Classes.
const (
	ClassLS Class = iota
	ClassTC
	ClassScav
	numClasses
)

// String implements fmt.Stringer (the Prometheus label value).
func (c Class) String() string {
	switch c {
	case ClassLS:
		return "ls"
	case ClassScav:
		return "scavenger"
	default:
		return "tc"
	}
}

// ClassOf maps a wire priority to its latency class.
func ClassOf(p proto.Priority) Class {
	switch {
	case p.LatencySensitive():
		return ClassLS
	case p.Scavenger():
		return ClassScav
	default:
		return ClassTC
	}
}

// Log-bucketed HDR-style histogram geometry. Values are bucketed by the
// position of their most significant bit (the octave) and histSubBuckets
// linear sub-buckets per octave, so the relative quantile error is bounded
// by 1/histSubBuckets ≈ 3.1% while the whole non-negative int64 range is
// covered by a fixed array — no allocation and no saturation on the record
// path, unlike the sample rings this replaces.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	// Values below histSubBuckets get exact buckets (block 0); each MSB
	// position from histSubBits..62 gets one block of histSubBuckets.
	histBuckets = (64 - histSubBits) * histSubBuckets
)

// histBucketIndex maps a value to its bucket. Negative values clamp to 0.
func histBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	hi := 63 - bits.LeadingZeros64(u|1)
	if hi < histSubBits {
		return int(u)
	}
	shift := uint(hi - histSubBits)
	return ((hi - histSubBits + 1) << histSubBits) | int((u>>shift)&(histSubBuckets-1))
}

// histBucketUpper returns the largest value a bucket admits (the
// conservative representative Quantile reports).
func histBucketUpper(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	block := idx >> histSubBits
	sub := idx & (histSubBuckets - 1)
	shift := uint(block - 1)
	return int64(uint64(histSubBuckets+sub+1)<<shift) - 1
}

// histBucketLower returns the smallest value a bucket admits.
func histBucketLower(idx int) int64 {
	if idx == 0 {
		return 0
	}
	return histBucketUpper(idx-1) + 1
}

// Hist is a lock-free log-bucketed latency histogram: the one histogram
// behind the registry, the e2e wire deltas, autotune and every simulated
// figure. Record is safe for concurrent use, allocation-free, and never
// saturates; readers take a Snapshot and compute quantiles from the copy.
// Count, Sum, Min and Max are exact for recorded samples (wire-merged
// deltas carry no minimum; see mergeDelta). The zero value is ready to
// use; a nil *Hist ignores Record and reports zero everywhere.
type Hist struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	// minInv holds MaxInt64 - min, so the zero value means "no sample
	// yet" and tracking the minimum is the same raise-only CAS as max.
	minInv atomic.Int64
}

// raise lifts a to at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		m := a.Load()
		if v <= m || a.CompareAndSwap(m, v) {
			return
		}
	}
}

// Record adds one sample (negative values clamp to 0).
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	// Extremes first: a reader that sees the count sees them too.
	raise(&h.max, v)
	raise(&h.minInv, math.MaxInt64-v)
	h.counts[histBucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Merge adds o's samples into h (cold path; aggregation).
func (h *Hist) Merge(o *Hist) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
	raise(&h.max, o.max.Load())
	raise(&h.minInv, o.minInv.Load())
}

// Snapshot copies the histogram for consistent read-side computation.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Counts = make([]int64, histBuckets)
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the exact sum of recorded samples.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest recorded sample (0 if empty).
func (h *Hist) Min() int64 {
	if h.Count() == 0 {
		return 0
	}
	return math.MaxInt64 - h.minInv.Load()
}

// Max returns the largest recorded sample (0 if empty).
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of recorded samples (0 if empty).
func (h *Hist) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile is a convenience over Snapshot().Quantile for single queries.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Tail returns the 99.99th percentile when at least 10^4 samples make it
// meaningful, otherwise the highest percentile the sample count supports
// (p99.9, then p99, then the max). The paper reports the 99.99% tail; short
// simulations of QD=1 LS tenants may not accumulate 10^4 samples.
func (h *Hist) Tail() int64 {
	s := h.Snapshot()
	switch {
	case s.Count >= 10000:
		return s.Quantile(0.9999)
	case s.Count >= 1000:
		return s.Quantile(0.999)
	case s.Count >= 100:
		return s.Quantile(0.99)
	default:
		return s.Max
	}
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	Counts []int64
	Count  int64
	Sum    int64
	Max    int64
}

// Quantile returns the value at quantile q in [0,1]: the upper bound of
// the bucket holding the sample of rank ceil(q*count), so the estimate is
// within one sub-bucket (a factor of 1+1/32) of the true sample. q >= 1
// returns the exact recorded maximum.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.Counts {
		seen += n
		if seen >= rank {
			up := histBucketUpper(i)
			if up > s.Max {
				// The top occupied bucket's range can exceed the true
				// maximum; never report beyond it.
				up = s.Max
			}
			return up
		}
	}
	return s.Max
}

// Sub returns the samples recorded between prev and s, two snapshots of
// the same histogram (a zero prev subtracts nothing). Counts, Count and
// Sum are exact. The interval maximum is not recoverable from two
// snapshots, so Max is the top occupied delta bucket's upper bound,
// capped at the lifetime maximum.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	top := -1
	for i, n := range s.Counts {
		if i < len(prev.Counts) {
			n -= prev.Counts[i]
		}
		d.Counts[i] = n
		if n > 0 {
			top = i
		}
	}
	if top >= 0 {
		d.Max = min(histBucketUpper(top), s.Max)
	}
	return d
}

// CumulativeLE returns how many samples are <= bound (the Prometheus
// histogram bucket value for le=bound).
func (s HistSnapshot) CumulativeLE(bound int64) int64 {
	var n int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if histBucketUpper(i) <= bound {
			n += c
		}
	}
	return n
}
