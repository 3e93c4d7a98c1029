package main

import (
	"cmp"
	"slices"
	"sync/atomic"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// stageAppDone marks the generator's Done callback (TCP workloads only).
// It is recorded into the connection's host buffer right after the
// session's complete event for the same CID; aux carries the latency the
// generator measured from its Conn.Submit call.
const stageAppDone = telemetry.Stage(0x0f)

// event is one recorded trace point, packed into 16 bytes so a traced
// pass of a few million events fits in preallocated memory.
type event struct {
	w      uint64 // time (ns) << 8 | stage << 4 | prio
	aux    int32
	tenant uint16
	cid    uint16
}

func mkEvent(t int64, e telemetry.Event) event {
	aux := e.Aux
	if aux > 1<<31-1 {
		aux = 1<<31 - 1
	}
	return event{
		w:      uint64(t)<<8 | uint64(e.Stage&0xf)<<4 | uint64(e.Prio&0xf),
		aux:    int32(aux),
		tenant: uint16(e.Tenant),
		cid:    uint16(e.CID),
	}
}

func (e event) t() int64               { return int64(e.w >> 8) }
func (e event) stage() telemetry.Stage { return telemetry.Stage(e.w >> 4 & 0xf) }
func (e event) prio() proto.Priority   { return proto.Priority(e.w & 0xf) }

// evBuf is a preallocated event buffer. Recording stops (and full is set)
// when it runs out; nothing is written out until the run ends.
type evBuf struct {
	ev   []event
	n    atomic.Int64
	full atomic.Bool
	// clock stamps events; on TCP it is the benchmark's monotonic clock,
	// on the simulator the engine's virtual clock.
	clock func() int64
	// lastTenant/lastCID remember the most recent host complete event so
	// the generator's Done callback (same goroutine, called right after)
	// can tag its app-done marker. Only used on single-writer host buffers.
	lastTenant proto.TenantID
	lastCID    nvme.CID
}

func newEvBuf(capacity int, clock func() int64) *evBuf {
	return &evBuf{ev: make([]event, capacity), clock: clock}
}

// record is a telemetry.TraceFunc. It is safe for concurrent writers
// (the server's reactor shards share one buffer).
func (b *evBuf) record(e telemetry.Event) {
	if e.Stage == telemetry.StageComplete {
		b.lastTenant, b.lastCID = e.Tenant, e.CID
	}
	b.put(mkEvent(b.clock(), e))
}

func (b *evBuf) put(ev event) {
	i := b.n.Add(1) - 1
	if i >= int64(len(b.ev)) {
		b.full.Store(true)
		return
	}
	b.ev[i] = ev
}

// appDone records the generator's completion marker for the request the
// session just completed.
func (b *evBuf) appDone(latency int64) {
	b.put(mkEvent(b.clock(), telemetry.Event{Stage: stageAppDone, Tenant: b.lastTenant, CID: b.lastCID, Aux: latency}))
}

func (b *evBuf) events() []event {
	n := b.n.Load()
	if n > int64(len(b.ev)) {
		n = int64(len(b.ev))
	}
	return b.ev[:n]
}

// Classes and stages of the per-layer breakdown.
const (
	clsLS = iota
	clsTC
	clsSC
	numClasses
)

var className = [numClasses]string{"ls", "tc", "sc"}

func classOf(p proto.Priority) int {
	switch {
	case p.LatencySensitive():
		return clsLS
	case p.Scavenger():
		return clsSC
	default:
		return clsTC
	}
}

// The stages are contiguous, so per request they add up to its latency:
//
//	handoff: Conn.Submit → submit, plus complete → Done (generator hand-off)
//	xfer:    submit → arrive
//	queue:   arrive → drain-start (parked classes only)
//	service: drain-start (LS: arrive) → device-complete
//	notify:  device-complete → coalesced-notify (coalesced classes only)
//	return:  coalesced-notify (else device-complete) → complete
const (
	stHandoff = iota
	stXfer
	stQueue
	stService
	stNotify
	stReturn
	numStages
)

var stageName = [numStages]string{"handoff", "xfer", "queue", "service", "notify", "return"}

// life is one request's lifecycle as the reducer reassembles it.
type life struct {
	cls                                          int
	submit, arrive, drain, device, notify, compl int64
	enqueued                                     bool
	completed                                    bool
}

// stageStats is the reduced breakdown.
type stageStats struct {
	// samples[c][s] holds per-request stage durations (ns) of class c.
	samples [numClasses][numStages][]int64
	// latency[c] holds the matched requests' end-to-end latency (ns).
	latency [numClasses][]int64
	// present[c][s] says the stage exists for class c in this workload.
	present [numClasses][numStages]bool
	// negative counts stage durations below zero: a mismatched event.
	negative int
	// orphans counts lifecycle events that matched no live request.
	orphans int
}

type tcKey uint32

func key(t uint16, c uint16) tcKey { return tcKey(t)<<16 | tcKey(c) }

// reduceStages rebuilds every request's lifecycle from the merged event
// streams and splits its latency into the stages above. Events are
// matched per (tenant, CID); CIDs are reused, so a submit opens a fresh
// lifecycle. Parked requests (TC/scavenger) are released in FIFO order
// by drain-start events, whose aux is the batch size; a drain-start whose
// own CID was never parked is the draining command itself and joins the
// batch as its last member. A coalesced-notify (keyed by the drain CID)
// stamps every member of that batch.
//
// appDone selects how a lifecycle ends: with generator markers (TCP) the
// app-done event closes it and carries the hand-off; without (simulator)
// the session's complete event closes it and the hand-off is zero.
// Only lifecycles ending inside [from, to] are reported; events after to
// are not read, so a truncated trace is cut where its first buffer filled.
func reduceStages(streams [][]event, appDone bool, from, to int64) *stageStats {
	var all []event
	for _, s := range streams {
		all = append(all, s...)
	}
	// Each stream is in time order per writer; a stable sort merges them
	// and keeps same-instant events in emission order.
	slices.SortStableFunc(all, func(a, b event) int { return cmp.Compare(a.t(), b.t()) })

	st := &stageStats{}
	live := make(map[tcKey]*life)
	parked := make(map[uint16][]*life)
	batches := make(map[tcKey][]*life)
	emit := func(l *life, handoff, latency, end int64) {
		if end < from {
			return
		}
		d := [numStages]int64{stHandoff: handoff, stXfer: l.arrive - l.submit}
		if l.drain != 0 {
			d[stQueue] = l.drain - l.arrive
			d[stService] = l.device - l.drain
			st.present[l.cls][stQueue] = true
		} else {
			d[stService] = l.device - l.arrive
		}
		if l.notify != 0 {
			d[stNotify] = l.notify - l.device
			d[stReturn] = l.compl - l.notify
			st.present[l.cls][stNotify] = true
		} else {
			d[stReturn] = l.compl - l.device
		}
		if appDone {
			st.present[l.cls][stHandoff] = true
		}
		for s := range d {
			if d[s] < 0 {
				st.negative++
				return
			}
		}
		st.present[l.cls][stXfer] = true
		st.present[l.cls][stService] = true
		st.present[l.cls][stReturn] = true
		for s := range d {
			st.samples[l.cls][s] = append(st.samples[l.cls][s], d[s])
		}
		st.latency[l.cls] = append(st.latency[l.cls], latency)
	}
	for _, ev := range all {
		t := ev.t()
		if t > to {
			break
		}
		k := key(ev.tenant, ev.cid)
		l := live[k]
		switch ev.stage() {
		case telemetry.StageSubmit:
			if l != nil && !l.completed {
				st.orphans++ // previous owner of this CID never completed
			}
			live[k] = &life{cls: classOf(ev.prio()), submit: t}
		case telemetry.StageArrive:
			if l == nil || l.arrive != 0 {
				st.orphans++
				continue
			}
			l.arrive = t
		case telemetry.StageEnqueue:
			if l == nil {
				st.orphans++
				continue
			}
			l.enqueued = true
			parked[ev.tenant] = append(parked[ev.tenant], l)
		case telemetry.StageDrainStart:
			n := int(ev.aux)
			q := parked[ev.tenant]
			var members []*life
			self := l != nil && !l.enqueued && l.drain == 0
			if self {
				n--
			}
			if n > len(q) || n < 0 {
				st.orphans++
				n = len(q)
			}
			members = append(members, q[:n]...)
			parked[ev.tenant] = q[n:]
			if self {
				members = append(members, l)
			}
			for _, m := range members {
				m.drain = t
			}
			batches[k] = members
		case telemetry.StageDeviceComplete:
			if l == nil || l.arrive == 0 {
				st.orphans++
				continue
			}
			l.device = t
		case telemetry.StageCoalescedNotify:
			for _, m := range batches[k] {
				m.notify = t
			}
			delete(batches, k)
		case telemetry.StageComplete:
			if l == nil || l.device == 0 {
				st.orphans++
				continue
			}
			l.compl = t
			l.completed = true
			if !appDone {
				emit(l, 0, t-l.submit, t)
				delete(live, k)
			}
		case stageAppDone:
			if l == nil || !l.completed {
				st.orphans++
				continue
			}
			lat := int64(ev.aux)
			start := t - lat
			emit(l, (l.submit-start)+(t-l.compl), lat, t)
			delete(live, k)
		}
	}
	return st
}

// means returns class c's mean stage durations and mean latency (ns).
func (st *stageStats) means(c int) (stages [numStages]float64, latency float64) {
	n := len(st.latency[c])
	if n == 0 {
		return stages, 0
	}
	for s := 0; s < numStages; s++ {
		var sum float64
		for _, v := range st.samples[c][s] {
			sum += float64(v)
		}
		stages[s] = sum / float64(n)
	}
	var sum float64
	for _, v := range st.latency[c] {
		sum += float64(v)
	}
	return stages, sum / float64(n)
}

// cutoffOf returns the time after which some buffer stopped recording
// (0 when none filled): lifecycles past it are incomplete.
func cutoffOf(bufs ...*evBuf) int64 {
	var cut int64
	for _, b := range bufs {
		if !b.full.Load() {
			continue
		}
		ev := b.events()
		last := ev[len(ev)-1].t()
		// A shared buffer's slots fill in index order, not time order.
		for _, e := range ev[len(ev)-min(len(ev), 64):] {
			if e.t() < last {
				last = e.t()
			}
		}
		if cut == 0 || last < cut {
			cut = last
		}
	}
	return cut
}
