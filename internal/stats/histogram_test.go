package stats_test

// The latency histogram behind workload results, the experiments and
// opf-perf is telemetry.Hist. These tests pin the properties those
// callers rely on through its exported API only.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nvmeopf/internal/telemetry"
)

// exactQuantile is the sample of rank ceil(q*n) in sorted order.
func exactQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// bucketRep returns the value Quantile reports for v's bucket: its upper
// edge. With samples {v, MaxInt64} the rank-1 sample is v, and the
// MaxInt64 maximum never caps the edge.
func bucketRep(v int64) int64 {
	var h telemetry.Hist
	h.Record(v)
	h.Record(math.MaxInt64)
	return h.Quantile(0.5)
}

func TestHistogramEmpty(t *testing.T) {
	var h telemetry.Hist
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zeroed: count=%d min=%d max=%d mean=%v",
			h.Count(), h.Min(), h.Max(), h.Mean())
	}
	if h.Quantile(0.99) != 0 {
		t.Fatalf("empty quantile = %d, want 0", h.Quantile(0.99))
	}
}

func TestHistogramSingle(t *testing.T) {
	var h telemetry.Hist
	h.Record(12345)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got != 12345 {
			t.Errorf("Quantile(%v) = %d, want 12345", q, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h telemetry.Hist
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramMinMaxSumMean(t *testing.T) {
	var h telemetry.Hist
	vals := []int64{10, 20, 30, 40}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if h.Sum() != 100 {
		t.Fatalf("sum=%d", h.Sum())
	}
	if h.Mean() != 25 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := int64(-1)
	for v := int64(0); v < 1<<20; v += 37 {
		r := bucketRep(v)
		if r < prev {
			t.Fatalf("bucket not monotonic at %d: edge %d < %d", v, r, prev)
		}
		if r < v {
			t.Fatalf("bucket edge %d below its sample %d", r, v)
		}
		prev = r
	}
}

func TestBucketLowInverse(t *testing.T) {
	// Walk every bucket from 0: a bucket's lower edge and its upper edge
	// both land in it, and the value after the upper edge opens the next.
	lo, buckets := int64(0), 0
	for {
		up := bucketRep(lo)
		if up < lo {
			t.Fatalf("bucket of %d reports edge %d below it", lo, up)
		}
		if got := bucketRep(up); got != up {
			t.Fatalf("upper edge %d maps to bucket with edge %d", up, got)
		}
		buckets++
		if up == math.MaxInt64 {
			break
		}
		if next := bucketRep(up + 1); next <= up {
			t.Fatalf("value %d after edge %d did not open a new bucket (edge %d)", up+1, up, next)
		}
		lo = up + 1
	}
	if want := (64 - telemetry.HistSubBits) << telemetry.HistSubBits; buckets != want {
		t.Fatalf("walked %d buckets, want %d", buckets, want)
	}
}

// TestQuantileRelativeError checks the histogram quantile against the exact
// quantile on random workload-like samples; the log bucketing bounds
// relative error to one sub-bucket.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h telemetry.Hist
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mixture of a body (~100us) and a heavy tail (~10ms).
		var v int64
		if rng.Intn(100) < 97 {
			v = 50_000 + rng.Int63n(100_000)
		} else {
			v = 1_000_000 + rng.Int63n(20_000_000)
		}
		h.Record(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		exact := exactQuantile(samples, q)
		got := h.Quantile(q)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("q=%v exact=%d got=%d relErr=%.3f", q, exact, got, relErr)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all telemetry.Hist
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1_000_000)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() {
		t.Fatalf("merge count/sum mismatch: %d/%d vs %d/%d", a.Count(), a.Sum(), all.Count(), all.Sum())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge min/max mismatch")
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merge quantile mismatch at %v: %d vs %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a telemetry.Hist
	a.Record(5)
	a.Merge(nil)
	a.Merge(&telemetry.Hist{})
	if a.Count() != 1 || a.Min() != 5 || a.Max() != 5 {
		t.Fatalf("merge with empty perturbed state: count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
	var empty, src telemetry.Hist
	src.Record(9)
	empty.Merge(&src)
	if empty.Min() != 9 || empty.Max() != 9 || empty.Count() != 1 {
		t.Fatalf("merge into empty wrong: count=%d min=%d max=%d", empty.Count(), empty.Min(), empty.Max())
	}
}

func TestTailDegrades(t *testing.T) {
	var h telemetry.Hist
	for i := 0; i < 50; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.Max() {
		t.Errorf("tiny sample Tail() should be max")
	}
	for i := 0; i < 1000; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.Quantile(0.999) {
		t.Errorf("1k sample Tail() should be p99.9")
	}
	for i := 0; i < 10000; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.Quantile(0.9999) {
		t.Errorf("10k sample Tail() should be p99.99")
	}
}

// Property: quantiles are monotone nondecreasing in q, and bounded by
// min/max, for arbitrary sample sets.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h telemetry.Hist
		for _, r := range raw {
			h.Record(int64(r % 10_000_000))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms is equivalent to recording the
// concatenation of their samples.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, all telemetry.Hist
		for _, x := range xs {
			a.Record(int64(x))
			all.Record(int64(x))
		}
		for _, y := range ys {
			b.Record(int64(y))
			all.Record(int64(y))
		}
		a.Merge(&b)
		if a.Count() != all.Count() || a.Sum() != all.Sum() {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
			if a.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
