package main

import (
	"strings"
	"testing"
)

func TestParseProcIO(t *testing.T) {
	in := "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{rchar: 3980, wchar: 120, syscr: 9, syscw: 2}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	later, err := parseProcIO(strings.NewReader("syscw: 7\nsyscr: 19\nwchar: 4216\nrchar: 4000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d := later.sub(got); d != (procIO{rchar: 20, wchar: 4096, syscr: 10, syscw: 5}) {
		t.Fatalf("delta %+v", d)
	}
	for _, bad := range []string{
		"rchar: 1\nwchar: 2\nsyscr: 3\n", // syscw missing
		"rchar: 1\nwchar: x\nsyscr: 3\nsyscw: 4\n",
		"",
	} {
		if _, err := parseProcIO(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcIO(%q) accepted malformed input", bad)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {999, 0}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
		{99999, 0.999}, {100000, 0.9999}, {1234567, 0.99999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d", got)
	}
	// summarize sorts in place and reports µs.
	sum := summarize([]int64{3000, 1000, 2000})
	if sum.n != 3 || sum.p50 != 2 || sum.p99 != 3 || sum.mean != 2 {
		t.Errorf("summarize = %+v", sum)
	}
}

func TestHistQuantile(t *testing.T) {
	counts := []uint64{0, 5, 5}
	bounds := []float64{0, 1, 2, 3}
	if got := histQuantile(counts, bounds, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(counts, bounds, 0.99); got != 3 {
		t.Errorf("p99 = %v, want 3", got)
	}
	if got := histQuantile([]uint64{0, 0, 0}, bounds, 0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
}
