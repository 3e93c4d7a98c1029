package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// The sans-IO pass replays a TCP workload's IO shapes on one goroutine
// through hostqp.Session ↔ targetqp.Session with no sockets and no
// goroutine hand-offs, and times each public call from outside. Every PDU
// is marshalled with proto.AppendPDUHeader (plus its payload reference,
// as the TCP writer sends it) and decoded by a pooled proto.Reader, the
// host side with the same zero-copy C2H sink the TCP client installs.
// The device is the run's own stamped bdev.Memory, so the replay's reads
// and writes are checked like the TCP passes'.

// Layers timed by the sans-IO pass.
const (
	lyEncode = iota
	lyDecode
	lyHostSubmit
	lyHostHandle
	lyTargetHandle
	lyTargetComplete
	lyDevice
	numLayers
)

// meter reads either the monotonic clock or the process's cumulative
// allocation count; a layer's cost is the sum of end-minus-begin
// readings around its calls, less the empty-meter cost per call.
type meter struct {
	allocs bool
	ms     runtime.MemStats
	acc    [numLayers]int64
	calls  [numLayers]int64
}

func (m *meter) read() int64 {
	if m.allocs {
		runtime.ReadMemStats(&m.ms)
		return int64(m.ms.Mallocs)
	}
	return nowNS()
}

func (m *meter) add(layer int, begin int64) {
	m.acc[layer] += m.read() - begin
	m.calls[layer]++
}

// empty returns the median reading of an empty begin/add pair.
func (m *meter) empty() float64 {
	v := make([]float64, 201)
	for i := range v {
		b := m.read()
		v[i] = float64(m.read() - b)
	}
	return median(v)
}

// siConn is one initiator connection of the replay.
type siConn struct {
	host     *hostqp.Session
	tsess    *targetqp.Session
	hostOut  []proto.PDU
	tgtOut   []proto.PDU
	h2t, t2h bytes.Buffer
	rdT, rdH *proto.Reader
	readBufs map[nvme.CID][]byte
	gen      *siStream
}

// siStream is the replay's closed-loop generator for one connection.
type siStream struct {
	gen   ioGen
	slots []*siSlot
	ready []*siSlot

	outstanding int
	completed   int64
	attempted   int64
	failed      int64
}

type siSlot struct {
	req
	s    *siStream
	done func(hostqp.Result)
}

// onDone runs inside the timed host HandlePDU call, so it only checks the
// result and queues the slot for resubmission.
func (sl *siSlot) onDone(r hostqp.Result) {
	s := sl.s
	s.outstanding--
	s.completed++
	if !s.gen.check(&sl.req, r) {
		s.failed++
	}
	s.ready = append(s.ready, sl)
}

// siJob is one queued device command.
type siJob struct {
	cmd  nvme.Command
	data []byte
	done func(nvme.Completion, []byte)
}

// siBackend queues device commands; the replay loop runs them.
type siBackend struct {
	dev  bdev.Device
	jobs []siJob
}

func (b *siBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: b.dev.BlockSize(), Capacity: b.dev.NumBlocks()}
}

func (b *siBackend) Submit(cmd nvme.Command, data []byte, _ bool, done func(nvme.Completion, []byte)) {
	b.jobs = append(b.jobs, siJob{cmd, data, done})
}

// execute mirrors the TCP server's executor: reads land in pooled
// buffers that the completion path hands on or returns.
func (b *siBackend) execute(j siJob) (nvme.Completion, []byte) {
	cpl := nvme.Completion{CID: j.cmd.CID, Status: nvme.StatusSuccess}
	n := int(j.cmd.Blocks()) * blockSize
	switch j.cmd.Opcode {
	case nvme.OpRead:
		out := proto.GetBuf(n)
		if err := b.dev.ReadBlocks(out, j.cmd.SLBA); err != nil {
			proto.PutBuf(out)
			cpl.Status = nvme.StatusInternalError
			return cpl, nil
		}
		return cpl, out
	case nvme.OpWrite:
		if len(j.data) != n || b.dev.WriteBlocks(j.data, j.cmd.SLBA) != nil {
			cpl.Status = nvme.StatusInternalError
		}
	}
	return cpl, nil
}

// replay is one sans-IO run over both connections.
type replay struct {
	m     *meter
	be    *siBackend
	conns []*siConn
	wire  []byte
}

func newReplay(mem *bdev.Memory, shape tcpShape, ws *writeState, seed, tag uint64, m *meter) (*replay, error) {
	clock := func() int64 { return time.Now().UnixNano() }
	be := &siBackend{dev: mem}
	tgt, err := targetqp.NewTarget(targetqp.Config{
		Mode: targetqp.ModeOPF, MaxPending: 4096, Clock: clock, PooledPayloads: true,
	}, be)
	if err != nil {
		return nil, err
	}
	r := &replay{m: m, be: be}
	cfgs := []hostqp.Config{
		{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1},
		{Class: proto.PrioThroughputCritical, Window: shape.window(), QueueDepth: shape.tcQD, NSID: 1},
	}
	lsGen, tcGen := shape.gens(seed+1, tag, ws)
	gens := []ioGen{lsGen, tcGen}
	for i, cfg := range cfgs {
		c := &siConn{readBufs: make(map[nvme.CID][]byte)}
		cfg.OnReadBuffer = func(cid nvme.CID, buf []byte) { c.readBufs[cid] = buf }
		cfg.OnReadRetire = func(cid nvme.CID) { delete(c.readBufs, cid) }
		if c.host, err = hostqp.New(cfg, func(p proto.PDU) { c.hostOut = append(c.hostOut, p) }, clock); err != nil {
			return nil, err
		}
		if c.tsess, err = tgt.NewSession(func(p proto.PDU) { c.tgtOut = append(c.tgtOut, p) }); err != nil {
			return nil, err
		}
		c.rdT = proto.NewReader(&c.h2t, true)
		c.rdH = proto.NewReader(&c.t2h, true)
		c.rdH.SetC2HSink(func(cid nvme.CID, off, n uint32) []byte {
			buf := c.readBufs[cid]
			if end := uint64(off) + uint64(n); buf == nil || end > uint64(len(buf)) {
				return nil
			}
			return buf[off : off+n]
		})
		s := &siStream{gen: gens[i]}
		for j := 0; j < cfg.QueueDepth; j++ {
			sl := &siSlot{s: s}
			sl.done = sl.onDone
			s.slots = append(s.slots, sl)
		}
		c.gen = s
		r.conns = append(r.conns, c)
		c.host.Start()
	}
	if err := r.step(); err != nil {
		return nil, err
	}
	for _, c := range r.conns {
		if !c.host.Connected() {
			return nil, fmt.Errorf("sans-IO: handshake did not complete")
		}
		c.gen.ready = append(c.gen.ready, c.gen.slots...)
	}
	return r, nil
}

// step moves every queued PDU and device command through the stack until
// nothing is in flight but what waits on the next submission.
func (r *replay) step() error {
	m := r.m
	for busy := true; busy; {
		busy = false
		for _, c := range r.conns {
			for _, p := range c.hostOut {
				b := m.read()
				r.wire = proto.AppendPDUHeader(r.wire[:0], p)
				m.add(lyEncode, b)
				c.h2t.Write(r.wire)
				c.h2t.Write(proto.PayloadRef(p))
				if cmd, ok := p.(*proto.CapsuleCmd); ok {
					cmd.Data = nil // write payloads stay generator-owned
				}
				proto.Recycle(p)
				busy = true
			}
			c.hostOut = c.hostOut[:0]
			for c.h2t.Len() > 0 {
				b := m.read()
				p, err := c.rdT.Next()
				m.add(lyDecode, b)
				if err != nil {
					return fmt.Errorf("sans-IO: target decode: %w", err)
				}
				b = m.read()
				err = c.tsess.HandlePDU(p)
				m.add(lyTargetHandle, b)
				proto.ReleaseInbound(p)
				if err != nil {
					return fmt.Errorf("sans-IO: target: %w", err)
				}
			}
		}
		for len(r.be.jobs) > 0 {
			j := r.be.jobs[0]
			r.be.jobs = r.be.jobs[1:]
			b := m.read()
			cpl, data := r.be.execute(j)
			m.add(lyDevice, b)
			b = m.read()
			j.done(cpl, data)
			m.add(lyTargetComplete, b)
			busy = true
		}
		for _, c := range r.conns {
			for _, p := range c.tgtOut {
				b := m.read()
				r.wire = proto.AppendPDUHeader(r.wire[:0], p)
				m.add(lyEncode, b)
				c.t2h.Write(r.wire)
				c.t2h.Write(proto.PayloadRef(p))
				if d, ok := p.(*proto.C2HData); ok {
					proto.PutBuf(d.Data)
					d.Data = nil
				}
				proto.Recycle(p)
				busy = true
			}
			c.tgtOut = c.tgtOut[:0]
			for c.t2h.Len() > 0 {
				b := m.read()
				p, err := c.rdH.Next()
				m.add(lyDecode, b)
				if err != nil {
					return fmt.Errorf("sans-IO: host decode: %w", err)
				}
				b = m.read()
				err = c.host.HandlePDU(p)
				m.add(lyHostHandle, b)
				proto.ReleaseInbound(p)
				if err != nil {
					return fmt.Errorf("sans-IO: host: %w", err)
				}
			}
		}
	}
	return nil
}

// submitReady resubmits every slot whose request completed.
func (r *replay) submitReady() error {
	for _, c := range r.conns {
		s := c.gen
		for _, sl := range s.ready {
			io := s.gen.next(&sl.req, sl.done)
			s.attempted++
			s.outstanding++
			b := r.m.read()
			err := c.host.Submit(io)
			r.m.add(lyHostSubmit, b)
			if err != nil {
				return fmt.Errorf("sans-IO: submit: %w", err)
			}
		}
		s.ready = s.ready[:0]
	}
	return nil
}

// run replays until ios more requests complete or the deadline passes,
// whichever comes first.
func (r *replay) run(ios int64, deadline time.Time) error {
	goal := r.completed() + ios
	for r.completed() < goal {
		if err := r.submitReady(); err != nil {
			return err
		}
		if err := r.step(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return nil
}

// drain stops submitting, flushes the TC tail window and completes
// everything outstanding.
func (r *replay) drain() error {
	for _, c := range r.conns {
		if c.gen.outstanding > 0 && c.host.PendingTC() > 0 {
			c.host.Flush()
			if err := c.host.Submit(hostqp.IO{Op: nvme.OpFlush, Done: func(hostqp.Result) {}}); err != nil {
				return fmt.Errorf("sans-IO: flush: %w", err)
			}
		}
	}
	if err := r.step(); err != nil {
		return err
	}
	for _, c := range r.conns {
		if c.gen.outstanding != 0 {
			return fmt.Errorf("sans-IO: %d requests still outstanding after drain", c.gen.outstanding)
		}
	}
	return nil
}

func (r *replay) completed() int64 {
	var n int64
	for _, c := range r.conns {
		n += c.gen.completed
	}
	return n
}

// sansIOResult is the per-IO cost of each layer.
type sansIOResult struct {
	nsPerIO     [numLayers]float64
	allocsPerIO [numLayers]float64
	attempted   int64
	failed      int64
}

// Replay sizes: a timed run bounded by sansIOSeconds, and a smaller
// allocation-counting run (runtime.ReadMemStats stops the world per read).
const (
	sansIOSeconds  = 1.5
	sansIOWarmIOs  = 20000
	sansIOAllocIOs = 3000
)

func runSansIO(mem *bdev.Memory, shape tcpShape, ws *writeState, seed, tag uint64) (*sansIOResult, error) {
	res := &sansIOResult{}
	for _, allocs := range []bool{false, true} {
		m := &meter{allocs: allocs}
		r, err := newReplay(mem, shape, ws, seed, tag, m)
		if err != nil {
			return nil, err
		}
		far := time.Now().Add(time.Hour)
		if err := r.run(sansIOWarmIOs, far); err != nil {
			return nil, err
		}
		empty := m.empty()
		m.acc, m.calls = [numLayers]int64{}, [numLayers]int64{}
		before := r.completed()
		if allocs {
			err = r.run(sansIOAllocIOs, far)
		} else {
			err = r.run(1<<62, time.Now().Add(time.Duration(sansIOSeconds*float64(time.Second))))
		}
		if err != nil {
			return nil, err
		}
		ios := float64(r.completed() - before)
		acc, calls := m.acc, m.calls
		if err := r.drain(); err != nil {
			return nil, err
		}
		for l := 0; l < numLayers; l++ {
			v := (float64(acc[l]) - empty*float64(calls[l])) / ios
			if allocs {
				res.allocsPerIO[l] = v
			} else {
				res.nsPerIO[l] = v
			}
		}
		for _, c := range r.conns {
			res.attempted += c.gen.attempted
			res.failed += c.gen.failed
		}
	}
	return res, nil
}

// metrics reports the pass; cpuNSPerIO is the measured TCP pass's process
// CPU per IO, which the layer sum is set against.
func (r *sansIOResult) metrics(cpuNSPerIO float64) map[string]float64 {
	ns, al := r.nsPerIO, r.allocsPerIO
	sum := 0.0
	for _, v := range ns {
		sum += v
	}
	m := map[string]float64{
		"proto.encode_ns_per_io":      ns[lyEncode],
		"proto.decode_ns_per_io":      ns[lyDecode],
		"proto.allocs_per_io":         al[lyEncode] + al[lyDecode],
		"hostqp.submit_ns_per_io":     ns[lyHostSubmit],
		"hostqp.handle_ns_per_io":     ns[lyHostHandle],
		"hostqp.allocs_per_io":        al[lyHostSubmit] + al[lyHostHandle],
		"targetqp.handle_ns_per_io":   ns[lyTargetHandle],
		"targetqp.complete_ns_per_io": ns[lyTargetComplete],
		"targetqp.allocs_per_io":      al[lyTargetHandle] + al[lyTargetComplete],
		"bdev.sansio_ns_per_io":       ns[lyDevice],
		"layers.sum_ns_per_io":        sum,
	}
	if cpuNSPerIO > 0 {
		m["layers.residual_frac"] = 1 - sum/cpuNSPerIO
	}
	return m
}
