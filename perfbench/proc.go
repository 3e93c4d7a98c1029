package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procIO holds the /proc/self/io counters the socket metrics are built
// from. Every read/write/readv/writev on a socket counts in syscr/syscw
// and its bytes in rchar/wchar, so deltas over a window give syscalls and
// wire bytes per IO without wrapping the connections (a net.Conn wrapper
// would hide the raw *net.TCPConn and lose the writev path).
type procIO struct {
	rchar, wchar, syscr, syscw int64
}

// parseProcIO reads the "key: value" lines of /proc/<pid>/io. Unknown
// keys are ignored; each of the four counters used must be present.
func parseProcIO(r io.Reader) (procIO, error) {
	var p procIO
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *int64
		switch strings.TrimSpace(key) {
		case "rchar":
			dst = &p.rchar
		case "wchar":
			dst = &p.wchar
		case "syscr":
			dst = &p.syscr
		case "syscw":
			dst = &p.syscw
		default:
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: %s: %w", key, err)
		}
		*dst = n
		seen++
	}
	if err := sc.Err(); err != nil {
		return procIO{}, fmt.Errorf("proc io: %w", err)
	}
	if seen != 4 {
		return procIO{}, fmt.Errorf("proc io: found %d of rchar/wchar/syscr/syscw", seen)
	}
	return p, nil
}

func (p procIO) sub(o procIO) procIO {
	return procIO{p.rchar - o.rchar, p.wchar - o.wchar, p.syscr - o.syscr, p.syscw - o.syscw}
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	return parseProcIO(f)
}

// runtime/metrics samples read at each window edge.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mSchedLat     = "/sched/latencies:seconds"
)

// snapshot is the process state at one window edge.
type snapshot struct {
	wall        time.Time
	user, sys   time.Duration
	io          procIO
	allocs      uint64
	allocBytes  uint64
	gcCPU       float64
	schedCounts []uint64
	schedBounds []float64
}

func takeSnapshot() (snapshot, error) {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.user = time.Duration(ru.Utime.Nano())
	s.sys = time.Duration(ru.Stime.Nano())
	io, err := readProcIO()
	if err != nil {
		return s, err
	}
	s.io = io
	ms := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCPU}, {Name: mSchedLat}}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.allocBytes = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	h := ms[3].Value.Float64Histogram()
	s.schedCounts = append([]uint64(nil), h.Counts...)
	s.schedBounds = h.Buckets
	s.wall = time.Now()
	return s, nil
}

// windowCost is what the process spent between two snapshots.
type windowCost struct {
	seconds    float64
	cpu        time.Duration // user+sys
	user, sys  time.Duration
	io         procIO
	allocs     uint64
	allocBytes uint64
	gcCPU      float64
	schedP99   float64 // seconds
}

func costBetween(a, b snapshot) windowCost {
	c := windowCost{
		seconds:    b.wall.Sub(a.wall).Seconds(),
		user:       b.user - a.user,
		sys:        b.sys - a.sys,
		io:         b.io.sub(a.io),
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
	}
	c.cpu = c.user + c.sys
	delta := make([]uint64, len(b.schedCounts))
	for i := range delta {
		delta[i] = b.schedCounts[i] - a.schedCounts[i]
	}
	c.schedP99 = histQuantile(delta, b.schedBounds, 0.99)
	return c
}

// histQuantile returns the upper bound of the bucket holding quantile q of
// a runtime/metrics histogram (counts[i] covers [bounds[i], bounds[i+1])).
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			hi := bounds[i+1]
			if math.IsInf(hi, 1) {
				hi = bounds[i]
			}
			return hi
		}
	}
	return bounds[len(bounds)-1]
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss, KiB
// on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailQuantile picks the highest of p99, p99.9, p99.99, … that still has
// at least ten samples beyond it, so a reported tail is never one or two
// outliers. It returns 0 when even p99 lacks ten samples beyond it (fewer
// than 1000 samples).
func tailQuantile(n int) float64 {
	q := 0.0
	for d := 100; n >= 10*d; d *= 10 {
		q = 1 - 1/float64(d)
	}
	return q
}

// latencySummary is the exact distribution of one class's samples.
type latencySummary struct {
	n                    int
	mean, p50, p99, p999 float64 // µs
	tail, tailQ          float64 // µs at the highest percentile with ≥10 samples beyond it
}

func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	slices.Sort(ns)
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	s := latencySummary{
		n:    len(ns),
		mean: sum / float64(len(ns)) / 1e3,
		p50:  float64(quantile(ns, 0.50)) / 1e3,
		p99:  float64(quantile(ns, 0.99)) / 1e3,
		p999: float64(quantile(ns, 0.999)) / 1e3,
	}
	if q := tailQuantile(len(ns)); q > 0 {
		s.tailQ = q
		s.tail = float64(quantile(ns, q)) / 1e3
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
