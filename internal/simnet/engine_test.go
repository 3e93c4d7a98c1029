package simnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %d", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
}

func TestEngineFIFOSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEnginePastClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.At(50, func() { // in the past; must run "now"
			if e.Now() != 100 {
				t.Errorf("past event ran at %d", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	end := e.RunUntil(20)
	if end != 20 {
		t.Fatalf("end = %d", end)
	}
	if len(got) != 2 {
		t.Fatalf("got = %v", got)
	}
	e.RunUntil(30)
	if len(got) != 3 {
		t.Fatalf("second RunUntil missed events: %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("idle clock = %d", e.Now())
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

// scheduler is the surface TestEngineOrderProperty drives identically on
// the engine and on its reference model.
type scheduler interface {
	At(t Time, fn func())
	Now() Time
	Run() Time
	RunUntil(deadline Time) Time
}

// refEngine is the reference model of Engine: pending events in a plain
// slice, the next one found by sorting on (at, seq).
type refEngine struct {
	now     Time
	seq     uint64
	pending []event
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) At(t Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.pending = append(r.pending, event{at: t, seq: r.seq, fn: fn})
}

// step fires the earliest pending event if it is due by deadline.
func (r *refEngine) step(deadline Time) bool {
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	if len(r.pending) == 0 || r.pending[0].at > deadline {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) RunUntil(deadline Time) Time {
	for r.step(deadline) {
	}
	if r.now < deadline {
		r.now = deadline
	}
	return r.now
}

func (r *refEngine) Run() Time {
	for r.step(math.MaxInt64) {
	}
	return r.now
}

// orderScript drives s through a seeded random interleaving of At, Run
// and RunUntil. Events schedule nested events (in the past, at the same
// instant, or later) from inside their callbacks. It returns the
// sequence of (event id, firing time) pairs.
func orderScript(s scheduler, seed int64) [][2]int64 {
	rng := rand.New(rand.NewSource(seed))
	var fired [][2]int64
	next := int64(0)
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		id := next
		next++
		// Decide the children now, so both schedulers see the same
		// program whatever order they fire it in.
		kids := make([]Time, 0, 2)
		if depth < 3 {
			for k := rng.Intn(3); k > 0; k-- {
				kids = append(kids, Time(rng.Intn(41)-10)) // past, now or later
			}
		}
		s.At(at, func() {
			fired = append(fired, [2]int64{id, s.Now()})
			for _, d := range kids {
				schedule(s.Now()+d, depth+1)
			}
		})
	}
	for step := rng.Intn(40); step >= 0; step-- {
		switch op := rng.Intn(10); {
		case op < 6:
			schedule(s.Now()+Time(rng.Intn(60)-10), 0)
		case op < 7:
			for k := rng.Intn(4) + 1; k > 0; k-- {
				schedule(s.Now()+5, 0) // same-instant burst
			}
		case op < 9:
			s.RunUntil(s.Now() + Time(rng.Intn(30)))
		default:
			s.Run()
		}
	}
	s.Run()
	return fired
}

// Property: under any interleaving of At/Run/RunUntil with nested,
// same-instant and past-clamped scheduling, the engine fires exactly the
// sequence a reference sort by (at, seq) produces, at the same instants.
func TestEngineOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		return slices.Equal(orderScript(NewEngine(), seed), orderScript(&refEngine{}, seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Popped heap slots must not keep fired callbacks (and whatever PDUs or
// requests they captured) reachable from the backing array.
func TestEngineClearsPoppedSlots(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.At(Time(i%7), func() {})
	}
	e.RunUntil(3)
	if e.Pending() == 0 || e.Pending() == 64 {
		t.Fatalf("pending = %d, want a partial run", e.Pending())
	}
	check := func() {
		t.Helper()
		for i, ev := range e.events[len(e.events):cap(e.events)] {
			if ev.fn != nil {
				t.Fatalf("slot len+%d past the heap still holds a callback", i)
			}
		}
	}
	check()
	e.Run()
	check()
}

// Once the heap has grown, scheduling and firing a pre-bound callback
// allocates nothing.
func TestEngineAllocsPerEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	for i := 0; i < 64; i++ {
		e.At(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			e.At(e.Now()+Time(16-i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("At+Run allocated %.1f times per 16 events, want 0", allocs)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(54321)
	same := 0
	a2 := NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRand(1).Int63n(0)
}

func TestRandJitter(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 30)
		if v < 70 || v > 130 {
			t.Fatalf("jitter out of range: %d", v)
		}
	}
	if r.Jitter(100, 0) != 100 {
		t.Fatal("zero spread should return base")
	}
	// Clamping keeps service times positive.
	for i := 0; i < 1000; i++ {
		if v := r.Jitter(1, 10); v < 1 {
			t.Fatalf("jitter went nonpositive: %d", v)
		}
	}
}
