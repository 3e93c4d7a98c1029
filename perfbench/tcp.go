package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/tcptrans"
)

// tcpShape is one loopback-TCP workload: one LS connection (QD 1, random
// 4 KiB reads) beside one TC connection.
type tcpShape struct {
	name     string
	tcWrite  bool   // TC writes sequentially instead of reading at random
	tcQD     int    // TC queue depth
	tcBlocks uint32 // blocks per TC IO
	// LBA regions [start, start+blocks) of each connection.
	lsStart, lsBlocks  uint64
	tcStart, tcBlocksN uint64
}

var (
	tcpSmallRead = tcpShape{
		name: "tcp-small-read", tcQD: 128, tcBlocks: 1,
		lsStart: 0, lsBlocks: deviceBlocks, tcStart: 0, tcBlocksN: deviceBlocks,
	}
	tcpLargeWrite = tcpShape{
		name: "tcp-large-write", tcWrite: true, tcQD: 16, tcBlocks: 32,
		lsStart: 0, lsBlocks: deviceBlocks / 4, tcStart: deviceBlocks / 4, tcBlocksN: deviceBlocks * 3 / 4,
	}
)

// window is the TC drain window the paper's static rule picks for the
// shape (loopback is treated as the 100 Gbps fabric, as opf-perf does).
func (s tcpShape) window() int {
	kind := core.WorkloadRead
	if s.tcWrite {
		kind = core.WorkloadWrite
	}
	return core.OptimalWindow(kind, 100, 1, s.tcQD)
}

// gens returns the LS and TC request generators of one pass.
func (s tcpShape) gens(seed, tag uint64, ws *writeState) (ls, tc ioGen) {
	if !s.tcWrite {
		ws = nil
	}
	return newIOGen(seed*2+1, tag, 1, s.lsStart, s.lsBlocks, nil),
		newIOGen(seed*2+2, tag, s.tcBlocks, s.tcStart, s.tcBlocksN, ws)
}

var clockBase = time.Now()

// nowNS is the benchmark's monotonic clock; it is never 0.
func nowNS() int64 { return int64(time.Since(clockBase)) + 1 }

// rig is one live target plus its two initiator connections.
type rig struct {
	srv    *tcptrans.Server
	ls, tc *tcptrans.Conn
	// Trace buffers (nil on the measured pass).
	lsBuf, tcBuf, srvBuf *evBuf
}

// startRig listens on loopback with program defaults and dials the LS
// and TC connections. bufs, when non-nil, are the traced pass's
// preallocated buffers: host events per connection, target events shared.
func startRig(dev bdev.Device, shape tcpShape, bufs *[3]*evBuf) (*rig, error) {
	scfg := tcptrans.ServerConfig{Mode: targetqp.ModeOPF, Device: dev}
	lsCfg := hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}
	tcCfg := hostqp.Config{Class: proto.PrioThroughputCritical, Window: shape.window(), QueueDepth: shape.tcQD, NSID: 1}
	r := &rig{}
	if bufs != nil {
		r.lsBuf, r.tcBuf, r.srvBuf = bufs[0], bufs[1], bufs[2]
		scfg.Trace = r.srvBuf.record
		lsCfg.Trace = r.lsBuf.record
		tcCfg.Trace = r.tcBuf.record
	}
	srv, err := tcptrans.Listen("127.0.0.1:0", scfg)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.srv = srv
	if r.ls, err = tcptrans.Dial(srv.Addr(), lsCfg); err != nil {
		r.close()
		return nil, fmt.Errorf("dial LS: %w", err)
	}
	if r.tc, err = tcptrans.Dial(srv.Addr(), tcCfg); err != nil {
		r.close()
		return nil, fmt.Errorf("dial TC: %w", err)
	}
	return r, nil
}

func (r *rig) close() {
	if r.ls != nil {
		r.ls.Close()
	}
	if r.tc != nil {
		r.tc.Close()
	}
	r.srv.Close()
}

// Generator phases.
const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseStop
)

// stream drives one connection closed-loop from its completion callbacks,
// which run on the connection's reactor goroutine; the generator starts
// no goroutines of its own. Everything but phase is touched only there
// (and read by main after drained is closed).
type stream struct {
	cls   int
	conn  *tcptrans.Conn
	trace *evBuf
	phase *atomic.Int32
	gen   ioGen

	outstanding int
	drained     chan struct{}

	attempted, failed   int64
	windowOps, winBytes int64
	lat                 []int64 // ns, completions inside the window
}

// slot is one queue-depth slot of a stream.
type slot struct {
	req
	s    *stream
	t0   int64
	done func(hostqp.Result)
}

func (sl *slot) issue() {
	s := sl.s
	io := s.gen.next(&sl.req, sl.done)
	s.attempted++
	s.outstanding++
	sl.t0 = nowNS()
	if err := s.conn.Submit(io); err != nil {
		s.failed++
		s.outstanding--
	}
}

func (sl *slot) onDone(r hostqp.Result) {
	s := sl.s
	lat := nowNS() - sl.t0
	if s.trace != nil {
		s.trace.appDone(lat)
	}
	s.outstanding--
	ok := s.gen.check(&sl.req, r)
	if !ok {
		s.failed++
	}
	switch s.phase.Load() {
	case phaseWindow:
		if ok {
			s.lat = append(s.lat, lat)
			s.windowOps++
			s.winBytes += int64(s.gen.blocks) * blockSize
		}
		sl.issue()
	case phaseWarmup:
		sl.issue()
	default:
		if s.outstanding == 0 {
			close(s.drained)
		}
	}
}

func newStream(cls int, conn *tcptrans.Conn, trace *evBuf, phase *atomic.Int32, qd int, gen ioGen) *stream {
	s := &stream{
		cls: cls, conn: conn, trace: trace, phase: phase, gen: gen,
		drained: make(chan struct{}),
		lat:     make([]int64, 0, 1<<16),
	}
	slots := make([]*slot, qd)
	for i := range slots {
		sl := &slot{s: s}
		sl.done = sl.onDone
		slots[i] = sl
	}
	// Prime the loop on the connection's reactor, where every later
	// submission happens too.
	conn.Defer(func() {
		for _, sl := range slots {
			sl.issue()
		}
	})
	return s
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	ls, tc       *stream
	cost         windowCost
	from, to     int64 // window edges on the nowNS clock
	pm           core.TargetPMStats
	tstats       targetqp.Stats
	windowSecond float64
}

func (p *passResult) ios() int64 { return p.ls.windowOps + p.tc.windowOps }

// runPass drives the rig for warmup, then measures for dur, then stops
// submitting and waits until every request has completed.
func runPass(r *rig, shape tcpShape, ws *writeState, seed, tag uint64, warmup, dur time.Duration) (*passResult, error) {
	var phase atomic.Int32
	p := &passResult{}
	lsGen, tcGen := shape.gens(seed, tag, ws)
	p.ls = newStream(clsLS, r.ls, r.lsBuf, &phase, 1, lsGen)
	p.tc = newStream(clsTC, r.tc, r.tcBuf, &phase, shape.tcQD, tcGen)

	time.Sleep(warmup)
	pm0, ts0 := r.srv.PMStats(), r.srv.Stats()
	s0, err := takeSnapshot()
	if err != nil {
		return nil, err
	}
	p.from = nowNS()
	phase.Store(phaseWindow)
	time.Sleep(dur)
	phase.Store(phaseStop)
	p.to = nowNS()
	s1, err := takeSnapshot()
	if err != nil {
		return nil, err
	}
	pm1, ts1 := r.srv.PMStats(), r.srv.Stats()
	for _, s := range []*stream{p.ls, p.tc} {
		select {
		case <-s.drained:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("%s: %s stream did not drain", shape.name, className[s.cls])
		}
	}
	p.cost = costBetween(s0, s1)
	p.windowSecond = float64(p.to-p.from) / 1e9
	p.pm = subPM(pm1, pm0)
	p.tstats = subTS(ts1, ts0)
	return p, nil
}

func subPM(a, b core.TargetPMStats) core.TargetPMStats {
	return core.TargetPMStats{
		LSBypassed: a.LSBypassed - b.LSBypassed, TCQueued: a.TCQueued - b.TCQueued,
		Drains: a.Drains - b.Drains, ForcedDrains: a.ForcedDrains - b.ForcedDrains,
		PrematureFlush: a.PrematureFlush - b.PrematureFlush, RespsSent: a.RespsSent - b.RespsSent,
		RespsSuppressed: a.RespsSuppressed - b.RespsSuppressed, TeardownDrops: a.TeardownDrops - b.TeardownDrops,
		BusyRejections: a.BusyRejections - b.BusyRejections, WatchdogDrains: a.WatchdogDrains - b.WatchdogDrains,
		ScavQueued: a.ScavQueued - b.ScavQueued, ScavDrains: a.ScavDrains - b.ScavDrains,
		ScavAgedDrains: a.ScavAgedDrains - b.ScavAgedDrains,
	}
}

func subTS(a, b targetqp.Stats) targetqp.Stats {
	return targetqp.Stats{
		Connections: a.Connections - b.Connections, CmdPDUs: a.CmdPDUs - b.CmdPDUs,
		RespPDUs: a.RespPDUs - b.RespPDUs, DataPDUs: a.DataPDUs - b.DataPDUs,
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Errors: a.Errors - b.Errors,
	}
}

// verifyWrites reads the benchmark-held device directly and counts blocks
// of the TC region that do not hold the stamp of their last write.
func verifyWrites(mem *bdev.Memory, shape tcpShape, ws *writeState, tag uint64) (int64, error) {
	var bad int64
	buf := make([]byte, int(shape.tcBlocks)*blockSize)
	for c, seq := range ws.lastSeq {
		lba := shape.tcStart + uint64(c)*uint64(shape.tcBlocks)
		if err := mem.ReadBlocks(buf, lba); err != nil {
			return 0, err
		}
		for i := uint64(0); i < uint64(shape.tcBlocks); i++ {
			if !stampOK(buf[i*blockSize:(i+1)*blockSize], lba+i, seq, tag) {
				bad++
			}
		}
	}
	return bad, nil
}

// outcome carries everything a workload run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// measuredPasses is how many times an untraced run builds its set-up and
// drives it, for an equal share of the measured seconds each. Each
// end-to-end metric is the median over the passes: on a shared machine
// the CPU the process gets drifts over seconds, and a median keeps one
// disturbed pass from moving the run's result.
const measuredPasses = 10

func runTCP(shape tcpShape, seed uint64, seconds int, traced bool) (*outcome, error) {
	tag := seed*0x9e3779b97f4a7c15 | 1
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	// A traced run spends half its seconds on the untraced counter pass
	// and a quarter (at most tracedMax) on the traced pass.
	passes, per := measuredPasses, time.Duration(seconds)*time.Second/measuredPasses
	if traced {
		passes, per = 1, time.Duration(seconds)*time.Second/2
	}
	perPass := map[string][]float64{}
	var lsN, tcN int
	var lsTail []float64
	for i := 0; i < passes; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		ws := &writeState{lastSeq: make([]uint64, shape.tcBlocksN/uint64(shape.tcBlocks))}
		t := time.Now()
		mem, err := fillDevice(tag)
		if err != nil {
			return nil, err
		}
		r, err := startRig(mem, shape, nil)
		if err != nil {
			return nil, err
		}
		perPass["setup_s"] = append(perPass["setup_s"], time.Since(t).Seconds())
		p, err := runPass(r, shape, ws, seed+uint64(i)*1000, tag, 500*time.Millisecond, per)
		r.close()
		if err != nil {
			return nil, err
		}
		out.attempted += p.ls.attempted + p.tc.attempted
		out.failed += p.ls.failed + p.tc.failed
		ls, tc := summarize(p.ls.lat), summarize(p.tc.lat)
		lsN, tcN, lsTail = lsN+ls.n, tcN+tc.n, append(lsTail, ls.tail)
		for k, v := range map[string]float64{
			"tc_iops":        float64(p.tc.windowOps) / p.windowSecond,
			"tc_mbps":        float64(p.tc.winBytes) / p.windowSecond / 1e6,
			"tc_p50_us":      tc.p50,
			"tc_p99_us":      tc.p99,
			"ls_p50_us":      ls.p50,
			"ls_p99_us":      ls.p99,
			"ls_p999_us":     ls.p999,
			"cpu_us_per_io":  p.cost.cpu.Seconds() * 1e6 / float64(p.ios()),
			"host_ios_per_s": float64(p.ios()) / p.windowSecond,
		} {
			perPass[k] = append(perPass[k], v)
		}

		if traced {
			addCounterMetrics(m, p, float64(p.ios()))
			tdur := min(max(time.Duration(seconds)*time.Second/4, time.Second), tracedMax)
			tr, err := tracedPass(mem, shape, ws, seed, tag, p, tdur)
			if err != nil {
				return nil, err
			}
			out.attempted += tr.attempted
			out.failed += tr.failed
			out.problems = append(out.problems, tr.problems...)
			for k, v := range tr.metrics {
				m[k] = v
			}
			sio, err := runSansIO(mem, shape, ws, seed, tag)
			if err != nil {
				return nil, err
			}
			out.attempted += sio.attempted
			out.failed += sio.failed
			for k, v := range sio.metrics(p.cost.cpu.Seconds() * 1e9 / float64(p.ios())) {
				m[k] = v
			}
		}
		if shape.tcWrite {
			bad, err := verifyWrites(mem, shape, ws, tag)
			if err != nil {
				return nil, err
			}
			if bad > 0 {
				out.failed += bad
				out.problems = append(out.problems, fmt.Sprintf("%d written blocks lost their last stamp", bad))
			}
		}
	}
	if !traced {
		for k, v := range perPass {
			m[k] = median(v)
		}
		fmt.Printf("%s: %d passes of %v; LS %d samples, TC %d samples; per-pass LS tail (p%.4g) median %.1f us\n",
			shape.name, passes, per, lsN, tcN, tailQuantile(lsN/passes)*100, median(lsTail))
	}
	m["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// addCounterMetrics fills the per-layer metrics read from process and
// program counters over the measured (untraced) window.
func addCounterMetrics(m map[string]float64, p *passResult, ios float64) {
	c := p.cost
	m["runtime.allocs_per_io"] = float64(c.allocs) / ios
	m["runtime.alloc_bytes_per_io"] = float64(c.allocBytes) / ios
	if c.cpu > 0 {
		m["runtime.gc_cpu_frac"] = c.gcCPU / c.cpu.Seconds()
	}
	m["runtime.sched_wait_p99_us"] = c.schedP99 * 1e6
	m["cpu.user_us_per_io"] = c.user.Seconds() * 1e6 / ios
	m["cpu.sys_us_per_io"] = c.sys.Seconds() * 1e6 / ios
	m["socket.read_syscalls_per_io"] = float64(c.io.syscr) / ios
	m["socket.write_syscalls_per_io"] = float64(c.io.syscw) / ios
	m["socket.wire_bytes_per_io"] = float64(c.io.wchar) / ios
	if c.io.wchar > 0 {
		m["socket.payload_frac"] = float64(p.ls.winBytes+p.tc.winBytes) / float64(c.io.wchar)
	}
	addPMMetrics(m, p.pm, p.tstats.CmdPDUs, ios)
	m["tcptrans.data_pdus_per_io"] = float64(p.tstats.DataPDUs) / ios
}

func addPMMetrics(m map[string]float64, pm core.TargetPMStats, cmds int64, ios float64) {
	m["core.resp_pdus_per_io"] = float64(pm.RespsSent) / ios
	if n := pm.RespsSent + pm.RespsSuppressed; n > 0 {
		m["core.coalesced_frac"] = float64(pm.RespsSuppressed) / float64(n)
	}
	if cmds > 0 {
		m["core.ls_bypassed_frac"] = float64(pm.LSBypassed) / float64(cmds)
	}
	m["core.forced_drains"] = float64(pm.ForcedDrains)
	m["core.busy_rejections"] = float64(pm.BusyRejections)
	if pm.ScavDrains > 0 {
		m["core.scav_aged_drain_frac"] = float64(pm.ScavAgedDrains) / float64(pm.ScavDrains)
	}
}

// tracedMax bounds the traced pass: its buffers hold every event, sized
// from the untraced pass's rates for the traced window.
const tracedMax = 4 * time.Second

// tracedPass reruns the workload on the same stamped device with the
// benchmark's trace hooks on the host sessions and the server, and a
// timing wrapper around the device, and reduces the events once the pass
// has ended.
func tracedPass(mem *bdev.Memory, shape tcpShape, ws *writeState, seed, tag uint64, untraced *passResult, dur time.Duration) (*outcome, error) {
	warm := 500 * time.Millisecond
	span := (warm + dur + 2*time.Second).Seconds() * 1.5
	lsRate := float64(untraced.ls.windowOps) / untraced.windowSecond
	tcRate := float64(untraced.tc.windowOps) / untraced.windowSecond
	perWindow := 1 / float64(shape.window())
	capacity := func(perSec float64) int { return int(span*perSec) + 1<<16 }
	bufs := [3]*evBuf{
		// LS host: submit, complete, app-done.
		newEvBuf(capacity(lsRate*3), nowNS),
		// TC host: submit, replay, complete, app-done, drain-mark per window.
		newEvBuf(capacity(tcRate*(4+perWindow)), nowNS),
		// Target: arrive, device-complete (+ enqueue for TC), drain-start
		// and coalesced-notify per window.
		newEvBuf(capacity(lsRate*2+tcRate*(3+2*perWindow)), nowNS),
	}
	dev := newTimedDevice(mem, capacity(lsRate+tcRate))
	r, err := startRig(dev, shape, &bufs)
	if err != nil {
		return nil, err
	}
	p, err := runPass(r, shape, ws, seed+1, tag, warm, dur)
	r.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		metrics:   map[string]float64{},
		attempted: p.ls.attempted + p.tc.attempted,
		failed:    p.ls.failed + p.tc.failed,
	}
	to := p.to
	if cut := cutoffOf(bufs[:]...); cut > 0 && cut < to {
		to = cut
		out.problems = append(out.problems, "trace buffer filled before the traced window ended")
	}
	st := reduceStages([][]event{bufs[0].events(), bufs[1].events(), bufs[2].events()}, true, p.from, to)
	m := out.metrics
	addStageMetrics(m, st)

	// The stages are contiguous, so each class's stage means must add up
	// to the mean latency the generator measured itself over the window.
	gap := 0.0
	for _, s := range []*stream{p.ls, p.tc} {
		stages, _ := st.means(s.cls)
		sum := 0.0
		for _, v := range stages {
			sum += v
		}
		mean := summarize(s.lat).mean * 1e3
		if mean > 0 {
			g := math.Abs(sum-mean) / mean
			gap = max(gap, g)
			if g > 0.05 {
				out.problems = append(out.problems, fmt.Sprintf(
					"%s stage means sum to %.1f us but mean latency is %.1f us", className[s.cls], sum/1e3, mean/1e3))
			}
		}
	}
	m["trace.stage_sum_gap_frac"] = gap
	if n := p.ls.windowOps + p.tc.windowOps; n > 0 {
		m["trace.matched_frac"] = float64(len(st.latency[clsLS])+len(st.latency[clsTC])) / float64(n)
	}
	if st.negative > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d traced requests have a negative stage", st.negative))
	}
	tracedIOPS := float64(p.tc.windowOps) / p.windowSecond
	untracedIOPS := float64(untraced.tc.windowOps) / untraced.windowSecond
	m["trace.overhead_frac"] = 1 - tracedIOPS/untracedIOPS

	ds := dev.stats(p.from, p.to)
	m["bdev.read.p50_us"], m["bdev.read.p99_us"] = usQuantiles(ds.reads)
	m["bdev.write.p50_us"], m["bdev.write.p99_us"] = usQuantiles(ds.writes)
	m["bdev.busy_frac"] = ds.busyFrac
	// Service spans the executor hand-off plus the device call.
	var svcSum float64
	var svcN int
	for c := 0; c < numClasses; c++ {
		for _, v := range st.samples[c][stService] {
			svcSum += float64(v)
		}
		svcN += len(st.samples[c][stService])
	}
	if svcN > 0 {
		m["tcptrans.exec_wait_mean_us"] = (svcSum/float64(svcN) - ds.meanNS) / 1e3
	}
	return out, nil
}

// addStageMetrics reports each class's stage p50/p99; a stage the class
// does not pass through in this workload reads 0.
func addStageMetrics(m map[string]float64, st *stageStats) {
	for c := 0; c < numClasses; c++ {
		for s := 0; s < numStages; s++ {
			if !st.present[c][s] {
				continue
			}
			name := "stage." + className[c] + "." + stageName[s]
			m[name+".p50_us"], m[name+".p99_us"] = usQuantiles(st.samples[c][s])
		}
	}
}

func usQuantiles(ns []int64) (p50, p99 float64) {
	s := summarize(ns)
	return s.p50, s.p99
}
