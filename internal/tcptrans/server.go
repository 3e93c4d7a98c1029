// Package tcptrans carries the NVMe-oPF protocol over real TCP sockets:
// a Server exposes a block device as an NVMe-oPF (or baseline NVMe-oF)
// target, and Dial opens initiator connections. The same sans-IO state
// machines as the simulator (internal/hostqp, internal/targetqp) run the
// protocol; this package only moves PDUs and provides the threading
// model.
//
// The target datapath is sharded, mirroring SPDK's reactor-per-core
// deployment: the server runs ServerConfig.Shards reactor goroutines
// (default GOMAXPROCS), each the sole owner of one targetqp.Target
// holding the sessions placed on it at accept time — each new session
// goes to the shard with the fewest live sessions (ties to the lowest
// index), so a disconnect frees its slot for the next arrival. A
// shard's sessions, PM queues, and request pool are touched only by its
// reactor, so — exactly as in the paper's per-initiator isolation
// argument (§IV) — the priority-manager state needs no locks even with
// every core busy. Tenant IDs are strided across shards (shard i hands
// out i, i+N, i+2N, …), so shared per-tenant telemetry stays exact.
// Device completions are posted back to the owning shard; the device
// executor pool and the backing bdev (which has its own synchronization)
// are server-wide.
//
// Per connection, a reader goroutine decodes PDUs with a pooling
// proto.Reader and pipelines them onto the shard's event queue under an
// InflightPerConn bound — no per-PDU blocking round trip — and a writer
// goroutine drains its outbound channel into batched vectored writes
// (one syscall per drain window) marshalled allocation-free into a
// reused buffer. Payload buffers and hot-path PDU structs cycle through
// internal/proto's pools on both sides of the socket.
package tcptrans

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/bdev"
	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// ServerConfig describes a TCP target.
type ServerConfig struct {
	// Mode selects oPF or baseline behaviour.
	Mode targetqp.Mode
	// Device is the backing store.
	Device bdev.Device
	// Shards is the number of reactor shards, each owning the sessions
	// placed on it (least-loaded at accept) with its own target state and
	// event queue. Default GOMAXPROCS, capped at 256 reactor lanes (the
	// 16-bit tenant-ID space leaves each lane 256 stride slots).
	// 1 reproduces the old single-reactor deployment.
	Shards int
	// InflightPerConn bounds how many inbound PDUs one connection may
	// have posted to its shard and not yet handled (default 64). 1
	// degenerates to the old serialized read→handle→read round trip.
	InflightPerConn int
	// WriteBatchBytes caps how many marshalled bytes one outbound drain
	// may coalesce into a single write syscall (default 256 KiB). 1
	// degenerates to one syscall per PDU, the pre-shard writer.
	WriteBatchBytes int
	// MaxDataLen is the largest single data transfer the target puts in
	// one PDU (advertised in the ICResp; default 1 MiB). Reads larger
	// than this are segmented into multiple C2HData fragments with
	// ascending offsets.
	MaxDataLen uint32
	// MaxPending is the PM safety valve (default 4096).
	MaxPending int
	// MaxPendingPerTenant / MaxPendingGlobal / LSHeadroom configure
	// admission control: past a cap the target answers the retryable
	// proto.StatusBusy instead of buffering unboundedly, with LSHeadroom
	// slots of the global cap reserved for latency-sensitive requests.
	// Zero caps disable admission control. The global cap and headroom
	// are divided evenly (ceiling) across shards.
	MaxPendingPerTenant int
	MaxPendingGlobal    int
	LSHeadroom          int
	// ScavengerHeadroom reserves slots of MaxPendingGlobal (beyond
	// LSHeadroom) that scavenger requests may never occupy, so a
	// best-effort flood always yields admission capacity to LS and TC.
	// Divided (ceiling) across shards like the other global budgets.
	ScavengerHeadroom int
	// DrainWatchdog force-drains any TC queue whose oldest parked request
	// has waited this long with no draining flag (host crashed or went
	// silent mid-window). Zero disables the watchdog.
	DrainWatchdog time.Duration
	// ScavengerAging bounds how long a parked scavenger queue can starve
	// behind continuous LS/TC traffic before it force-drains anyway. A
	// ticker fans the check out to every shard (like the drain watchdog)
	// so parked windows age out even on an otherwise idle connection.
	// Zero disables the bound.
	ScavengerAging time.Duration
	// Workers is the device executor pool size (default 8), shared by all
	// shards.
	Workers int
	// ReadLatency/WriteLatency optionally inject device service time, so
	// a RAM-backed target behaves like flash.
	ReadLatency, WriteLatency time.Duration
	// ExtraNamespaces attaches additional devices under explicit NSIDs
	// (Device itself serves NSID 1).
	ExtraNamespaces map[uint32]bdev.Device
	// Telemetry optionally attaches a live metrics registry to the
	// target (served over HTTP with telemetry.Registry.Serve). The
	// registry is lock-free and shared by all shards. Nil disables at
	// zero cost.
	Telemetry *telemetry.Registry
	// Trace optionally receives PDU lifecycle events from the target
	// state machines. It runs on the reactor goroutines — possibly
	// several concurrently — so it must be fast and thread-safe.
	Trace telemetry.TraceFunc
	// Recorder optionally attaches a target-side flight recorder (chained
	// after Trace; attach it to Telemetry with SetRecorder to serve
	// /debug/trace). Nil disables.
	Recorder *telemetry.Recorder
	// Autotune enables the closed-loop adaptive drain-window controller:
	// each reactor shard owns one autotune.Controller (fed by its own
	// target's drain completions and LS service latencies), and all shards
	// share one LS signal so a TC tenant backs off for LS pain anywhere on
	// the target. The config's Clock/Telemetry/Signal fields are filled in
	// from the server's when unset. Nil runs the static windows
	// bit-identically to a server without the field.
	Autotune *autotune.Config
}

// shard is one reactor: a goroutine that solely owns one targetqp.Target
// and the sessions assigned to it.
type shard struct {
	srv    *Server
	target *targetqp.Target
	events chan func()
	// sessions counts the live connections placed on this shard
	// (guarded by srv.mu): incremented at accept, decremented when
	// serveConn returns.
	sessions int
}

// post schedules fn on this shard's reactor; false if the server is
// closed.
func (sh *shard) post(fn func()) bool {
	select {
	case sh.events <- fn:
		return true
	case <-sh.srv.quit:
		return false
	}
}

// Server is a TCP NVMe-oPF target bound to a listener.
type Server struct {
	cfg    ServerConfig
	ln     net.Listener
	shards []*shard
	jobs   chan func()
	quit   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Listen starts a target on addr (e.g. "127.0.0.1:0").
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Device == nil {
		return nil, errors.New("tcptrans: nil device")
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 4096
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > 256 {
		cfg.Shards = 256 // one stride lane per shard, 256 tenants each
	}
	if cfg.InflightPerConn <= 0 {
		cfg.InflightPerConn = 64
	}
	if cfg.WriteBatchBytes <= 0 {
		cfg.WriteBatchBytes = maxWriteBatch
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		jobs:  make(chan func(), 1024),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	clock := func() int64 { return time.Now().UnixNano() }
	// Adaptive windows: one controller per shard (owned by its reactor,
	// like the PM it drives), all reading one shared LS signal.
	var atCfg autotune.Config
	if cfg.Autotune != nil {
		atCfg = *cfg.Autotune
		if atCfg.Clock == nil {
			atCfg.Clock = clock
		}
		if atCfg.Telemetry == nil {
			atCfg.Telemetry = cfg.Telemetry
		}
		if atCfg.Signal == nil {
			atCfg.Signal = autotune.NewSignal(atCfg.ObjectiveNS)
		}
	}
	// The global admission cap and LS headroom are target-wide budgets;
	// each shard polices an even (ceiling) slice of them.
	perShard := func(total int) int {
		if total <= 0 {
			return total
		}
		return (total + cfg.Shards - 1) / cfg.Shards
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{srv: s, events: make(chan func(), 1024)}
		var ctrl *autotune.Controller
		if cfg.Autotune != nil {
			ctrl, err = autotune.New(atCfg)
			if err != nil {
				ln.Close()
				return nil, err
			}
		}
		tgt, err := targetqp.NewTarget(targetqp.Config{
			Mode:                cfg.Mode,
			MaxPending:          cfg.MaxPending,
			MaxPendingPerTenant: cfg.MaxPendingPerTenant,
			MaxPendingGlobal:    perShard(cfg.MaxPendingGlobal),
			LSHeadroom:          perShard(cfg.LSHeadroom),
			ScavengerHeadroom:   perShard(cfg.ScavengerHeadroom),
			DrainWatchdog:       cfg.DrainWatchdog,
			ScavengerAging:      cfg.ScavengerAging,
			MaxDataLen:          cfg.MaxDataLen,
			Telemetry:           cfg.Telemetry,
			Trace:               cfg.Trace,
			Recorder:            cfg.Recorder,
			Clock:               clock,
			Autotune:            ctrl,
			TenantBase:          i,
			TenantStride:        cfg.Shards,
			PooledPayloads:      true,
		}, &execBackend{sh: sh, nsid: 1, dev: cfg.Device})
		if err != nil {
			ln.Close()
			return nil, err
		}
		for nsid, dev := range cfg.ExtraNamespaces {
			if err := tgt.AddNamespace(&execBackend{sh: sh, nsid: nsid, dev: dev}); err != nil {
				ln.Close()
				return nil, err
			}
		}
		sh.target = tgt
		s.shards = append(s.shards, sh)
	}
	cfg.Telemetry.SetShards(cfg.Shards)

	// Reactors: each the sole owner of its shard's target state machine.
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case fn := <-sh.events:
					fn()
				case <-s.quit:
					return
				}
			}
		}()
	}
	// Drain watchdog: one ticker fanning the check out to every shard's
	// reactor, each of which solely owns its target state. Ticking at a
	// quarter of the deadline bounds how late past the deadline a
	// force-drain can fire.
	if cfg.DrainWatchdog > 0 {
		tick := cfg.DrainWatchdog / 4
		if tick <= 0 {
			tick = cfg.DrainWatchdog
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					for _, sh := range s.shards {
						sh.post(func() { _, _ = sh.target.CheckWatchdog() })
					}
				case <-s.quit:
					return
				}
			}
		}()
	}
	// Scavenger aging: same fan-out shape as the watchdog. The target also
	// polls opportunistically on every command and completion; this ticker
	// only covers the quiet case where no foreground event ever fires to
	// notice that a parked window aged past the bound.
	if cfg.ScavengerAging > 0 {
		tick := cfg.ScavengerAging / 4
		if tick <= 0 {
			tick = cfg.ScavengerAging
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					for _, sh := range s.shards {
						sh.post(func() { _, _ = sh.target.CheckScavenger() })
					}
				case <-s.quit:
					return
				}
			}
		}()
	}
	// Device executor pool, shared across shards (the bdev has its own
	// synchronization; completions route back to the owning shard).
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case job := <-s.jobs:
					job()
				case <-s.quit:
					return
				}
			}
		}()
	}
	// Acceptor.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			// Least-loaded placement, ties to the lowest index.
			sh := s.shards[0]
			for _, c := range s.shards[1:] {
				if c.sessions < sh.sessions {
					sh = c
				}
			}
			sh.sessions++
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn, sh)
			}()
		}
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Telemetry returns the server's live metrics registry (nil when
// telemetry is disabled). Safe to read from any goroutine — the registry
// is lock-free.
func (s *Server) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// Shards returns the number of reactor shards the server runs.
func (s *Server) Shards() int { return len(s.shards) }

// Stats returns the target's counters, merged across shards (each
// shard's slice snapshotted on its own reactor).
func (s *Server) Stats() targetqp.Stats {
	var agg targetqp.Stats
	for _, sh := range s.shards {
		ch := make(chan targetqp.Stats, 1)
		if !sh.post(func() { ch <- sh.target.Stats() }) {
			continue
		}
		select {
		case st := <-ch:
			agg.Accumulate(st)
		case <-s.quit:
		}
	}
	return agg
}

// PMStats returns the priority managers' counters, merged across shards.
func (s *Server) PMStats() core.TargetPMStats {
	var agg core.TargetPMStats
	for _, sh := range s.shards {
		ch := make(chan core.TargetPMStats, 1)
		if !sh.post(func() { ch <- sh.target.PMStats() }) {
			continue
		}
		select {
		case st := <-ch:
			agg.Accumulate(st)
		case <-s.quit:
		}
	}
	return agg
}

// ActiveSessions returns the number of live sessions across all shards.
func (s *Server) ActiveSessions() int {
	total := 0
	for _, sh := range s.shards {
		ch := make(chan int, 1)
		if !sh.post(func() { ch <- sh.target.ActiveSessions() }) {
			continue
		}
		select {
		case n := <-ch:
			total += n
		case <-s.quit:
		}
	}
	return total
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	close(s.quit)
	s.wg.Wait()
	return err
}

// serveConn runs one initiator connection on the shard it was placed
// on at accept: a writer goroutine batches outbound PDUs into single writes, and
// the read loop pipelines inbound PDUs onto the shard's reactor under
// the per-connection inflight bound — the reader does not wait for one
// PDU to be handled before decoding the next.
func (s *Server) serveConn(conn net.Conn, sh *shard) {
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		sh.sessions--
		s.mu.Unlock()
	}()

	out := make(chan proto.PDU, 256)
	connDone := make(chan struct{}) // closed when this connection ends
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		drainWriter(conn, out, connDone, s.quit, writerConfig{
			batch:   s.cfg.WriteBatchBytes,
			release: releaseServerPDU,
		})
	}()

	// Session creation must run on the shard's reactor. The send closure
	// may be invoked (by late device completions) long after the
	// connection is gone, so it must never block or touch a closed
	// channel: it selects against connDone and releases PDUs it drops for
	// dead connections.
	sessCh := make(chan *targetqp.Session, 1)
	posted := sh.post(func() {
		sess, err := sh.target.NewSession(func(p proto.PDU) {
			select {
			case out <- p:
			case <-connDone:
				releaseServerPDU(p)
			case <-s.quit:
				releaseServerPDU(p)
			}
		})
		if err != nil {
			sessCh <- nil
			return
		}
		sessCh <- sess
	})
	var sess *targetqp.Session
	if posted {
		sess = <-sessCh
	}
	if sess == nil {
		close(connDone)
		writerWG.Wait()
		return
	}

	// Pipelined inbound: decode with a pooling reader, acquire an
	// inflight slot, post the PDU to the reactor, decode the next —
	// handler outcomes come back asynchronously. A protocol violation
	// closes the socket from the reactor, which surfaces here as a read
	// error on the next decode.
	// Buffered socket reads: a burst of pipelined capsules arrives in
	// one syscall instead of two reads (header, body) per PDU.
	rd := proto.NewReader(bufio.NewReaderSize(conn, 64<<10), true)
	inflight := make(chan struct{}, s.cfg.InflightPerConn)
	for {
		p, err := rd.Next()
		if err != nil {
			break
		}
		select {
		case inflight <- struct{}{}:
		case <-s.quit:
			proto.ReleaseInbound(p)
			p = nil
		}
		if p == nil {
			break
		}
		if !sh.post(func() {
			herr := sess.HandlePDU(p)
			proto.ReleaseInbound(p)
			<-inflight
			if herr != nil {
				// A protocol violation, not a normal disconnect (those
				// surface as read errors in the read loop). The nil
				// sentinel makes the writer flush anything queued ahead
				// of it — a TermReq explaining the rejection — before
				// closing the socket.
				s.cfg.Telemetry.IncTransportError()
				select {
				case out <- nil:
				case <-connDone:
				case <-s.quit:
				}
			}
		}) {
			<-inflight
			proto.ReleaseInbound(p)
			break
		}
	}
	// The connection is dead: tear the session down on its reactor so its
	// queued requests are dropped, its tenant ID eventually recycles, and
	// in-flight completions stop trying to send. The reactor queue is
	// FIFO, so teardown runs after every pipelined PDU above. Late device
	// completions for this session still land on the reactor after this,
	// where the tombstoned session absorbs them.
	sh.post(func() { sh.target.CloseSession(sess) })
	close(connDone)
	writerWG.Wait()
}

// execBackend runs device commands on the worker pool with optional
// injected latency, delivering completions back on the owning shard's
// reactor. One instance serves one (shard, namespace) pair.
type execBackend struct {
	sh   *shard
	nsid uint32
	dev  bdev.Device
}

// Namespace implements targetqp.Backend.
func (b *execBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: b.nsid, BlockSize: b.dev.BlockSize(), Capacity: b.dev.NumBlocks()}
}

// Submit implements targetqp.Backend. highPrio maps to executor priority:
// high-priority jobs run on a dedicated fast path (direct goroutine) so a
// deep TC backlog in the job queue cannot delay them — the real-transport
// analogue of the simulator's device-queue bypass.
func (b *execBackend) Submit(cmd nvme.Command, data []byte, highPrio bool, done func(nvme.Completion, []byte)) {
	srv := b.sh.srv
	run := func() {
		cpl, out := b.execute(cmd, data)
		b.sh.post(func() { done(cpl, out) })
	}
	if highPrio {
		go run()
		return
	}
	select {
	case srv.jobs <- run:
	case <-srv.quit:
	default:
		// Job queue saturated: spill to a goroutine rather than dropping
		// or blocking the reactor.
		go run()
	}
}

// execute performs the device operation. Read buffers come from the
// proto buffer pool; the completion path (or the drop path, for dead
// sessions) returns them.
func (b *execBackend) execute(cmd nvme.Command, data []byte) (nvme.Completion, []byte) {
	dev := b.dev
	ns := b.Namespace()
	cfg := &b.sh.srv.cfg
	cpl := nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess}
	if cmd.Opcode != nvme.OpFlush {
		if st := ns.CheckRange(cmd.SLBA, cmd.Blocks()); !st.OK() {
			cpl.Status = st
			return cpl, nil
		}
	}
	switch cmd.Opcode {
	case nvme.OpRead:
		if cfg.ReadLatency > 0 {
			time.Sleep(cfg.ReadLatency)
		}
		out := proto.GetBuf(ns.Bytes(cmd.Blocks()))
		if err := dev.ReadBlocks(out, cmd.SLBA); err != nil {
			proto.PutBuf(out)
			cpl.Status = nvme.StatusInternalError
			return cpl, nil
		}
		return cpl, out
	case nvme.OpWrite:
		if cfg.WriteLatency > 0 {
			time.Sleep(cfg.WriteLatency)
		}
		if len(data) != ns.Bytes(cmd.Blocks()) {
			cpl.Status = nvme.StatusDataXferError
			return cpl, nil
		}
		if err := dev.WriteBlocks(data, cmd.SLBA); err != nil {
			cpl.Status = nvme.StatusInternalError
		}
		return cpl, nil
	case nvme.OpFlush:
		if err := dev.Flush(); err != nil {
			cpl.Status = nvme.StatusInternalError
		}
		return cpl, nil
	default:
		cpl.Status = nvme.StatusInvalidOpcode
		return cpl, nil
	}
}

// NewMemoryServer is a convenience: an in-memory target of the given
// geometry, for tests and examples.
func NewMemoryServer(addr string, mode targetqp.Mode, blockSize uint32, blocks uint64) (*Server, error) {
	dev, err := bdev.NewMemory(blockSize, blocks)
	if err != nil {
		return nil, err
	}
	return Listen(addr, ServerConfig{Mode: mode, Device: dev})
}
