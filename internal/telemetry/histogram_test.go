package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestHistBucketGeometry checks the two geometric invariants every other
// guarantee rests on: a bucket's upper bound never undershoots the values
// it admits, and the relative overshoot is bounded by 1/histSubBuckets
// (values below histSubBuckets are exact).
func TestHistBucketGeometry(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		up := histBucketUpper(histBucketIndex(v))
		if up < v {
			t.Fatalf("bucket upper %d < value %d", up, v)
		}
		if v < histSubBuckets {
			if up != v {
				t.Fatalf("value %d below sub-bucket range not exact: upper %d", v, up)
			}
			return
		}
		if err := up - v; err*histSubBuckets > v {
			t.Fatalf("value %d: upper %d overshoots by %d (> v/%d)", v, up, err, histSubBuckets)
		}
	}
	for v := int64(0); v < 1<<14; v++ {
		check(v)
	}
	// Sweep the full int64 range at every octave boundary and interior.
	for shift := 14; shift < 63; shift++ {
		base := int64(1) << shift
		for _, v := range []int64{base - 1, base, base + 1, base + base/3, base + base/2} {
			if v > 0 {
				check(v)
			}
		}
	}
	check(1<<63 - 1)
	// Buckets tile the value range in order: each bucket's lower and upper
	// edges map back to it, and the next bucket starts one past its upper.
	for i := 0; i < histBuckets; i++ {
		lo, up := histBucketLower(i), histBucketUpper(i)
		if histBucketIndex(lo) != i || histBucketIndex(up) != i || lo > up {
			t.Fatalf("bucket %d edges [%d, %d] map to %d/%d", i, lo, up, histBucketIndex(lo), histBucketIndex(up))
		}
		if i+1 < histBuckets && histBucketLower(i+1) != up+1 {
			t.Fatalf("bucket %d ends at %d but bucket %d starts at %d", i, up, i+1, histBucketLower(i+1))
		}
	}
}

// TestHistQuantileErrorBounds records synthetic distributions at sample
// counts straddling every Tail rung and checks that every reported
// quantile sits within one sub-bucket (≤ 1/32 relative) above the exact
// sample quantile and never below it, that quantiles never decrease as q
// grows, that Count/Sum/Min/Max are exact, and that Tail picks the rung
// the sample count supports.
func TestHistQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp-tail": func() int64 { return int64(1000 * (1 + rng.ExpFloat64()*50)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 500_000 + rng.Int63n(1000)
			}
			return 2_000 + rng.Int63n(100)
		},
		// A ~100us body with a 3% heavy tail out to ~20ms.
		"body-heavy-tail": func() int64 {
			if rng.Intn(100) < 97 {
				return 50_000 + rng.Int63n(100_000)
			}
			return 1_000_000 + rng.Int63n(20_000_000)
		},
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}
	// Tail rungs: max below 100 samples, then p99, p99.9, p99.99.
	tailQ := func(n int) float64 {
		switch {
		case n >= 10000:
			return 0.9999
		case n >= 1000:
			return 0.999
		case n >= 100:
			return 0.99
		}
		return 1
	}
	for name, draw := range distributions {
		for _, n := range []int{99, 100, 999, 1000, 9999, 10000, 20_000} {
			h := &Hist{}
			samples := make([]int64, 0, n)
			var sum int64
			for i := 0; i < n; i++ {
				v := draw()
				h.Record(v)
				samples = append(samples, v)
				sum += v
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			hs := h.Snapshot()
			if hs.Count != int64(n) || h.Count() != int64(n) {
				t.Fatalf("%s/%d: count %d, want %d", name, n, hs.Count, n)
			}
			lo, hi := samples[0], samples[n-1]
			if hs.Max != hi || h.Max() != hi || h.Min() != lo || h.Sum() != sum || hs.Sum != sum {
				t.Fatalf("%s/%d: min/max/sum %d/%d/%d, want %d/%d/%d",
					name, n, h.Min(), h.Max(), h.Sum(), lo, hi, sum)
			}
			if want := float64(sum) / float64(n); h.Mean() != want {
				t.Fatalf("%s/%d: mean %v, want %v", name, n, h.Mean(), want)
			}
			for _, q := range quantiles {
				got := hs.Quantile(q)
				exact := exactQuantile(samples, q)
				if got < exact {
					t.Fatalf("%s/%d: q%.4f = %d undershoots exact %d", name, n, q, got, exact)
				}
				if limit := exact + exact/histSubBuckets + 1; got > limit {
					t.Fatalf("%s/%d: q%.4f = %d exceeds error bound %d (exact %d)", name, n, q, got, limit, exact)
				}
			}
			prev := int64(-1)
			for q := 0.0; q <= 1.0; q += 0.05 {
				v := hs.Quantile(q)
				if v < prev || v < lo || v > hi {
					t.Fatalf("%s/%d: q%.2f = %d breaks monotonicity (prev %d) or [%d, %d]", name, n, q, v, prev, lo, hi)
				}
				prev = v
			}
			if hs.Quantile(1) != hi {
				t.Fatalf("%s/%d: q1 = %d, want exact max %d", name, n, hs.Quantile(1), hi)
			}
			if got, want := h.Tail(), hs.Quantile(tailQ(n)); got != want {
				t.Fatalf("%s/%d: Tail = %d, want q%v = %d", name, n, got, tailQ(n), want)
			}
		}
	}
}

// TestHistMergeEqualsConcat: merging two histograms must be
// indistinguishable from recording both sample streams into one,
// including when either side (or both) is empty.
func TestHistMergeEqualsConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(n int, limit int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63n(limit)
		}
		return out
	}
	cases := []struct {
		name string
		a, b []int64
	}{
		{"wide-into-narrow", draw(5000, 1<<30), draw(3000, 1<<10)},
		{"empty-src", []int64{5, 700}, nil},
		{"empty-dst", nil, []int64{9, 12}},
		{"both-empty", nil, nil},
	}
	check := func(name string, a, b []int64) {
		t.Helper()
		ha, hb, concat := &Hist{}, &Hist{}, &Hist{}
		for _, v := range a {
			ha.Record(v)
			concat.Record(v)
		}
		for _, v := range b {
			hb.Record(v)
			concat.Record(v)
		}
		ha.Merge(hb)
		sa, sc := ha.Snapshot(), concat.Snapshot()
		if sa.Count != sc.Count || sa.Sum != sc.Sum || sa.Max != sc.Max || ha.Min() != concat.Min() {
			t.Fatalf("%s: merge summary differs: merged {n=%d sum=%d min=%d max=%d}, concat {n=%d sum=%d min=%d max=%d}",
				name, sa.Count, sa.Sum, ha.Min(), sa.Max, sc.Count, sc.Sum, concat.Min(), sc.Max)
		}
		for i := range sa.Counts {
			if sa.Counts[i] != sc.Counts[i] {
				t.Fatalf("%s: bucket %d differs: merged %d, concat %d", name, i, sa.Counts[i], sc.Counts[i])
			}
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.a, tc.b)
	}
	// Arbitrary small sample sets.
	prop := func(xs, ys []uint16) bool {
		a, b := make([]int64, len(xs)), make([]int64, len(ys))
		for i, x := range xs {
			a[i] = int64(x)
		}
		for i, y := range ys {
			b[i] = int64(y)
		}
		check("quick", a, b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistNilAndClamp covers the degenerate inputs the record and read
// paths must absorb: nil receivers, empty and single-sample histograms,
// negative samples, and the int64 extremes.
func TestHistNilAndClamp(t *testing.T) {
	var nilHist *Hist
	nilHist.Merge(&Hist{})
	(&Hist{}).Merge(nilHist)
	if s := nilHist.Snapshot(); s.Count != 0 || s.Counts != nil {
		t.Fatalf("nil hist snapshot not zero: %+v", s)
	}
	cases := []struct {
		name    string
		h       *Hist
		samples []int64
		// Expected exact summary; Quantile(q) must equal want.min for
		// every q when all samples are equal.
		n, sum, min, max int64
	}{
		{"nil", nil, []int64{100}, 0, 0, 0, 0},
		{"empty", &Hist{}, nil, 0, 0, 0, 0},
		{"single", &Hist{}, []int64{12345}, 1, 12345, 12345, 12345},
		{"negative-clamps", &Hist{}, []int64{-12345}, 1, 0, 0, 0},
		{"zero", &Hist{}, []int64{0, 0}, 2, 0, 0, 0},
		{"max-int64", &Hist{}, []int64{math.MaxInt64}, 1, math.MaxInt64, math.MaxInt64, math.MaxInt64},
		{"min-max-sum-mean", &Hist{}, []int64{40, 10, 30, 20}, 4, 100, 10, 40},
	}
	for _, tc := range cases {
		for _, v := range tc.samples {
			tc.h.Record(v)
		}
		h := tc.h
		if h.Count() != tc.n || h.Sum() != tc.sum || h.Min() != tc.min || h.Max() != tc.max {
			t.Fatalf("%s: n/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d",
				tc.name, h.Count(), h.Sum(), h.Min(), h.Max(), tc.n, tc.sum, tc.min, tc.max)
		}
		var mean float64
		if tc.n > 0 {
			mean = float64(tc.sum) / float64(tc.n)
		}
		if h.Mean() != mean {
			t.Fatalf("%s: mean %v, want %v", tc.name, h.Mean(), mean)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if got < tc.min || got > tc.max || (tc.min == tc.max && got != tc.min) {
				t.Fatalf("%s: Quantile(%v) = %d, want within [%d, %d]", tc.name, q, got, tc.min, tc.max)
			}
		}
		if h.Tail() != tc.max {
			t.Fatalf("%s: Tail = %d below 100 samples, want max %d", tc.name, h.Tail(), tc.max)
		}
	}
}

// TestHistConcurrentRecordExact: Record from many goroutines at once
// loses nothing — Count, Sum, Min and Max stay exact.
func TestHistConcurrentRecordExact(t *testing.T) {
	const goroutines, per = 8, 5000
	h := &Hist{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(1000 + g*per + i))
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * per
	if h.Count() != n || h.Min() != 1000 || h.Max() != 1000+n-1 || h.Sum() != n*1000+n*(n-1)/2 {
		t.Fatalf("n/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d",
			h.Count(), h.Sum(), h.Min(), h.Max(), n, n*1000+n*(n-1)/2, 1000, 1000+n-1)
	}
}

// TestHistSnapshotSub: the delta between two snapshots of one histogram
// is the histogram of the interval's samples alone — exact buckets, Count
// and Sum, and the same quantiles as a fresh histogram fed only those
// samples. The interval max is the top delta bucket's upper bound capped
// at the lifetime max, so it is exact when the lifetime max falls inside
// the interval and otherwise stays within that bucket.
func TestHistSnapshotSub(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name           string
		before, during func() int64
	}{
		{"max-in-interval", func() int64 { return rng.Int63n(50_000) }, func() int64 { return 10_000 + rng.Int63n(1_000_000) }},
		{"max-before-interval", func() int64 { return 5_000_000 + rng.Int63n(1000) }, func() int64 { return 1000 + rng.Int63n(100_000) }},
		{"nothing-before", nil, func() int64 { return rng.Int63n(1 << 20) }},
		{"nothing-during", func() int64 { return rng.Int63n(1 << 20) }, nil},
	}
	for _, tc := range cases {
		h, fresh := &Hist{}, &Hist{}
		for i := 0; tc.before != nil && i < 3000; i++ {
			h.Record(tc.before())
		}
		prev := h.Snapshot()
		for i := 0; tc.during != nil && i < 4000; i++ {
			v := tc.during()
			h.Record(v)
			fresh.Record(v)
		}
		d, want := h.Snapshot().Sub(prev), fresh.Snapshot()
		if d.Count != want.Count || d.Sum != want.Sum {
			t.Fatalf("%s: delta n/sum = %d/%d, want %d/%d", tc.name, d.Count, d.Sum, want.Count, want.Sum)
		}
		for i := range want.Counts {
			if d.Counts[i] != want.Counts[i] {
				t.Fatalf("%s: bucket %d = %d, want %d", tc.name, i, d.Counts[i], want.Counts[i])
			}
		}
		exactMax := h.Max() == fresh.Max()
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			got, w := d.Quantile(q), want.Quantile(q)
			if got == w {
				continue
			}
			if exactMax || got < w || histBucketIndex(got) != histBucketIndex(w) {
				t.Fatalf("%s: delta q%v = %d, fresh %d", tc.name, q, got, w)
			}
		}
	}
	// A zero baseline subtracts nothing.
	h := &Hist{}
	for i := int64(1); i < 5000; i += 7 {
		h.Record(i * i)
	}
	s := h.Snapshot()
	if d := s.Sub(HistSnapshot{}); d.Count != s.Count || d.Sum != s.Sum || d.Max != s.Max || d.Quantile(0.99) != s.Quantile(0.99) {
		t.Fatalf("Sub(zero) = {n=%d sum=%d max=%d}, want {n=%d sum=%d max=%d}", d.Count, d.Sum, d.Max, s.Count, s.Sum, s.Max)
	}
}

// TestCumulativeLEExactAtExportBounds: the /metrics bucket bounds coincide
// with internal bucket uppers, so the cumulative counts there are exact,
// not approximations.
func TestCumulativeLEExactAtExportBounds(t *testing.T) {
	h := &Hist{}
	for _, b := range histExportBounds {
		h.Record(b)     // lands exactly at the boundary: counts as <= b
		h.Record(b + 1) // first value of the next bucket: must not
	}
	hs := h.Snapshot()
	want := int64(0)
	for _, b := range histExportBounds {
		want++ // the sample at the boundary itself
		if got := hs.CumulativeLE(b); got != want {
			t.Fatalf("CumulativeLE(%d) = %d, want %d", b, got, want)
		}
		want++ // b+1 joins the population below the next boundary
	}
}

// TestClassOf pins the priority → class mapping (normal traffic accounts
// as TC: it shares the batched execution path).
func TestClassOf(t *testing.T) {
	if ClassOf(1) != ClassLS || ClassOf(0) != ClassTC || ClassOf(2) != ClassTC {
		t.Fatalf("ClassOf mapping wrong: ls=%v normal=%v tc=%v", ClassOf(1), ClassOf(0), ClassOf(2))
	}
	if ClassLS.String() != "ls" || ClassTC.String() != "tc" {
		t.Fatalf("class labels wrong: %q %q", ClassLS.String(), ClassTC.String())
	}
}
