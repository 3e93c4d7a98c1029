// Package simnet is a deterministic discrete-event simulation engine with
// the two resource models the NVMe-oPF experiments need: network links
// (bandwidth, MTU packetization, per-packet overhead, propagation delay)
// and poller CPUs (serialized per-PDU processing costs).
//
// Everything runs single-threaded on a virtual clock, so experiment results
// are bit-reproducible across runs and machines — a property the paper's
// real testbed cannot offer, and the reason figure regeneration is stable.
package simnet

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time = int64

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-timestamp events
	fn  func()
}

// before is the heap order: earliest instant first, scheduling order
// among events of the same instant. seq is unique, so the order is total
// and the firing sequence does not depend on the heap's layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Engine is not safe for concurrent use: all simulation code runs inside
// event callbacks on the caller's goroutine.
type Engine struct {
	now     Time
	seq     uint64
	events  []event // binary min-heap ordered by event.before
	stopped bool
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay d (clamped to now for negative d). Events
// scheduled for the same instant run in scheduling order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	e.At(e.now+int64(d), fn)
}

// At runs fn at absolute virtual time t (clamped to now if in the past).
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("simnet: nil event function")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// push adds ev to the heap, sifting it up from the end.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event. The vacated slot past the
// new length is cleared, so a fired callback (and every PDU or request it
// captured) is not kept reachable from the backing array.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	return top
}

// Run processes events until none remain or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.pop()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline (or until Stop).
// Events beyond the deadline stay queued; the clock is advanced to the
// deadline so a subsequent RunUntil continues seamlessly.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > deadline {
			break
		}
		ev := e.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Rand is a small deterministic xorshift64* PRNG. The simulator cannot use
// math/rand's global state because experiment reproducibility requires each
// component to own an explicitly-seeded stream.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Int63n returns a value uniform in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: Int63n(%d)", n))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Jitter returns base +/- spread, uniform. Negative results clamp to 1ns so
// service times remain positive.
func (r *Rand) Jitter(base, spread int64) int64 {
	if spread <= 0 {
		return base
	}
	v := base - spread + r.Int63n(2*spread+1)
	if v < 1 {
		v = 1
	}
	return v
}
