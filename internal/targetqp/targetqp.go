// Package targetqp implements the NVMe-oPF target: a Target that owns the
// target-side priority manager, the backing device, and tenant-ID
// assignment, plus one sans-IO Session per initiator connection. Sessions
// consume inbound PDUs via HandlePDU and emit outbound PDUs through a
// caller-provided send function, so the same code serves the TCP transport
// and the simulator.
//
// Two modes are provided:
//
//   - ModeOPF: the paper's design. Latency-sensitive requests bypass all
//     queues (target-side and device-side), throughput-critical requests
//     batch per tenant until a draining flag, and batch completions
//     coalesce into one response (Fig. 5, Algorithms 3–4).
//   - ModeBaseline: the unmodified SPDK-equivalent. Priority flags are
//     ignored, every request executes FIFO, and every completion produces
//     its own response PDU.
package targetqp

import (
	"errors"
	"fmt"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// ProtocolVersion is the PFV this runtime speaks.
const ProtocolVersion = 1

// Mode selects baseline (SPDK-equivalent) or NVMe-oPF behaviour.
type Mode int

// Modes.
const (
	ModeBaseline Mode = iota
	ModeOPF
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeOPF {
		return "nvme-opf"
	}
	return "spdk-baseline"
}

// Backend abstracts the device under the target: the simulator SSD or a
// bdev-backed executor. Submit hands over one command; done must be
// invoked exactly once with the completion (and read data when the command
// is a successful read). highPrio requests jump the device queue — the
// LS bypass; baseline mode never sets it.
type Backend interface {
	Submit(cmd nvme.Command, data []byte, highPrio bool, done func(cpl nvme.Completion, data []byte))
	Namespace() nvme.Namespace
}

// Config describes a target.
type Config struct {
	Mode Mode
	// MaxPending is the per-tenant safety valve passed to the PM.
	MaxPending int
	// SharedQueueAblation disables per-tenant queue isolation (for the
	// ablation benchmark only).
	SharedQueueAblation bool
	// MaxPendingPerTenant caps one tenant's admitted-but-uncompleted
	// requests; past the cap commands are answered with the retryable
	// proto.StatusBusy instead of buffered. Zero disables.
	MaxPendingPerTenant int
	// MaxPendingGlobal caps admitted-but-uncompleted requests across all
	// tenants. Zero disables.
	MaxPendingGlobal int
	// LSHeadroom reserves slots of MaxPendingGlobal for latency-sensitive
	// requests so a TC flood cannot starve LS admission.
	LSHeadroom int
	// ScavengerHeadroom reserves slots of MaxPendingGlobal (on top of
	// LSHeadroom) that scavenger requests may never occupy, so best-effort
	// floods always yield admission capacity to LS and TC. Zero means
	// scavengers compete for the same non-LS slots TC does.
	ScavengerHeadroom int
	// ScavengerAging bounds how long a parked scavenger queue can wait
	// while the target stays busy with LS/TC work: once the oldest parked
	// request has aged past it, the queue force-drains even though
	// capacity is not free. Requires Clock. Zero disables the bound
	// (scavengers drain only on idle capacity).
	ScavengerAging time.Duration
	// DrainWatchdog force-drains a TC queue whose oldest parked request
	// has waited this long with no draining flag (host crashed or went
	// silent mid-window). Requires Clock. Zero disables.
	DrainWatchdog time.Duration
	// MaxDataLen is the largest in-capsule data accepted (advertised in
	// ICResp). Zero means 1 MiB.
	MaxDataLen uint32
	// Telemetry optionally attaches a live metrics registry recording
	// target-side instruments per tenant (commands, queue depths, drains,
	// suppressions, responses, service latency). Nil disables at zero
	// cost.
	Telemetry *telemetry.Registry
	// Trace optionally receives PDU lifecycle events (arrive, enqueue,
	// drain-start, device-complete, coalesced-notify). Nil disables.
	Trace telemetry.TraceFunc
	// Recorder optionally attaches a target-side flight recorder: its
	// Trace hook is chained after Trace. Nil disables.
	Recorder *telemetry.Recorder
	// Clock provides timestamps for service-latency samples (virtual in
	// the simulator, wall clock on the TCP transport). It is also the
	// clock the ICResp shares with hosts for cross-runtime trace
	// correlation. Nil disables latency recording; counters are
	// unaffected.
	Clock func() int64
	// Autotune optionally attaches an adaptive drain-window controller
	// owned by this target's reactor shard: it is bound to the PM, fed
	// every drain completion, and fed LS service latencies (requires
	// Clock for the latter). Nil leaves the static window configuration
	// untouched — behavior is bit-identical to a target without the
	// field.
	Autotune *autotune.Controller
	// TenantBase and TenantStride carve the shared 0..65535 tenant-ID space
	// between shard-partitioned targets: this target assigns TenantBase,
	// TenantBase+TenantStride, TenantBase+2*TenantStride, … so sibling
	// shards never collide and shared telemetry stays per-tenant exact.
	// Zero values mean base 0, stride 1 (a single unsharded target).
	TenantBase   int
	TenantStride int
	// PooledPayloads opts the target into the proto buffer pool: inbound
	// write payloads are treated as pool-owned (taken from the CapsuleCmd
	// and released once the device completes), and outbound C2HData carry
	// pooled read buffers, to be released by the send function after
	// marshal. Only a transport whose send path honours that ownership
	// contract (the TCP server) may set it; the simulator passes payloads
	// by reference and must leave it false. Either way, outbound
	// CapsuleResp and C2HData structs come from the proto struct pools,
	// and the transport recycles each once it has been delivered.
	PooledPayloads bool
}

// Stats counts target-level PDU and request traffic. RespPDUs is the
// completion-notification count that Fig. 6(c) compares across designs.
type Stats struct {
	Connections int64
	CmdPDUs     int64
	RespPDUs    int64
	DataPDUs    int64
	Reads       int64
	Writes      int64
	Errors      int64
	// Disconnects counts sessions torn down by CloseSession;
	// TeardownDrops counts their queued requests that never executed.
	Disconnects   int64
	TeardownDrops int64
	// TelemetryUpdates counts host feedback PDUs merged — zero on any
	// deployment that never enabled the e2e channel.
	TelemetryUpdates int64
}

// Accumulate adds o's counters into s — the merge a sharded deployment
// uses to report target-wide stats across per-shard Targets.
func (s *Stats) Accumulate(o Stats) {
	s.Connections += o.Connections
	s.CmdPDUs += o.CmdPDUs
	s.RespPDUs += o.RespPDUs
	s.DataPDUs += o.DataPDUs
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Errors += o.Errors
	s.Disconnects += o.Disconnects
	s.TeardownDrops += o.TeardownDrops
	s.TelemetryUpdates += o.TelemetryUpdates
}

// Target is one NVMe-oPF target instance: one backing namespace served to
// many tenants. Create Sessions with NewSession as initiators connect.
//
// Target is not synchronized; in the simulator everything runs on the
// event loop, and the TCP transport serializes access through the reactor
// goroutine of the shard that owns this Target (one Target per shard,
// mirroring SPDK's reactor-per-core deployment).
type Target struct {
	cfg        Config
	backends   map[uint32]Backend // NSID -> device
	defaultNS  uint32
	pm         *core.TargetPM
	nextTenant int
	// freeTenants holds IDs recycled from torn-down sessions, reusable
	// once the dead session's last in-flight device callback lands — so a
	// stale completion can never be attributed to the ID's new owner.
	freeTenants []proto.TenantID
	// freeReqs recycles request-pool entries so a steady-state datapath
	// never allocates a tReq. Shard-local, like everything else here.
	freeReqs []*tReq
	stats    Stats
	sessions map[proto.TenantID]*Session
}

// NewTarget creates a target whose backend serves its namespace's own ID
// (commands are routed by NSID; AddNamespace attaches more devices).
func NewTarget(cfg Config, backend Backend) (*Target, error) {
	if backend == nil {
		return nil, errors.New("targetqp: nil backend")
	}
	if cfg.MaxDataLen == 0 {
		cfg.MaxDataLen = 1 << 20
	}
	if cfg.TenantStride <= 0 {
		cfg.TenantStride = 1
	}
	if cfg.TenantBase < 0 || cfg.TenantBase > 65535 {
		return nil, fmt.Errorf("targetqp: tenant base %d outside 0..65535", cfg.TenantBase)
	}
	ns := backend.Namespace()
	if err := ns.Validate(); err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		cfg.Trace = telemetry.ChainTrace(cfg.Trace, cfg.Recorder.Trace)
	}
	pm := core.NewTargetPM(core.TargetPMConfig{
		Isolated:            !cfg.SharedQueueAblation,
		MaxPending:          cfg.MaxPending,
		MaxPendingPerTenant: cfg.MaxPendingPerTenant,
		MaxPendingGlobal:    cfg.MaxPendingGlobal,
		LSHeadroom:          cfg.LSHeadroom,
		ScavengerHeadroom:   cfg.ScavengerHeadroom,
		Clock:               cfg.Clock,
		WatchdogNS:          cfg.DrainWatchdog.Nanoseconds(),
		ScavengerAgingNS:    cfg.ScavengerAging.Nanoseconds(),
	})
	pm.SetTelemetry(cfg.Telemetry)
	pm.SetTrace(cfg.Trace)
	if cfg.Autotune != nil {
		cfg.Autotune.Bind(pm)
		pm.SetDrainHook(cfg.Autotune.OnDrainComplete)
	}
	return &Target{
		cfg:        cfg,
		backends:   map[uint32]Backend{ns.ID: backend},
		defaultNS:  ns.ID,
		pm:         pm,
		nextTenant: cfg.TenantBase,
		sessions:   make(map[proto.TenantID]*Session),
	}, nil
}

// AddNamespace attaches another device to the target, served under its
// namespace's ID ("multiple tenants accessing single or many NVMe SSDs").
func (t *Target) AddNamespace(backend Backend) error {
	if backend == nil {
		return errors.New("targetqp: nil backend")
	}
	ns := backend.Namespace()
	if err := ns.Validate(); err != nil {
		return err
	}
	if _, dup := t.backends[ns.ID]; dup {
		return fmt.Errorf("targetqp: namespace %d already attached", ns.ID)
	}
	t.backends[ns.ID] = backend
	return nil
}

// Namespaces returns the attached namespace IDs.
func (t *Target) Namespaces() []uint32 {
	out := make([]uint32, 0, len(t.backends))
	for id := range t.backends {
		out = append(out, id)
	}
	return out
}

// Stats returns a copy of the target counters.
func (t *Target) Stats() Stats { return t.stats }

// PMStats returns the priority manager's counters.
func (t *Target) PMStats() core.TargetPMStats { return t.pm.Stats() }

// Telemetry returns the live metrics registry the target was configured
// with (nil when telemetry is disabled).
func (t *Target) Telemetry() *telemetry.Registry { return t.cfg.Telemetry }

// Autotune returns the adaptive drain-window controller this target was
// configured with (nil when adaptation is off).
func (t *Target) Autotune() *autotune.Controller { return t.cfg.Autotune }

// Mode returns the target's operating mode.
func (t *Target) Mode() Mode { return t.cfg.Mode }

// ActiveSessions returns the number of handshaken sessions not yet torn
// down.
func (t *Target) ActiveSessions() int { return len(t.sessions) }

// CloseSession tears down one initiator session after its connection
// dies. Queued-but-unexecuted requests are dropped from the PM (they can
// never be answered), the session stops sending PDUs and recording
// per-tenant telemetry, and its tenant ID returns to the free list once
// the last in-flight device callback lands — never earlier, so a stale
// completion cannot be attributed to the ID's next owner. Idempotent;
// a session that never finished its handshake is a no-op.
func (t *Target) CloseSession(s *Session) {
	if s == nil || !s.connected || s.dead {
		return
	}
	s.dead = true
	delete(t.sessions, s.tenant)
	dropped := t.pm.DropTenant(s.tenant)
	for _, cid := range dropped {
		// Dropped CIDs are queued (TC or scavenger) requests, so their pool
		// entries exist; the priority feeds Release's class accounting.
		prio := proto.PrioNormal
		if req := s.lookup(cid); req != nil {
			prio = req.prio
			if t.cfg.PooledPayloads {
				proto.PutBuf(req.data)
			}
			s.forget(cid)
			t.putReq(req)
		}
		t.pm.Release(s.tenant, prio)
	}
	t.stats.Disconnects++
	t.stats.TeardownDrops += int64(len(dropped))
	if t.cfg.Autotune != nil {
		// Drop the controller's loop state and clear its PM overrides: the
		// tenant ID recycles, and the next owner must not inherit a window
		// shrunk for this one's behavior.
		t.cfg.Autotune.Forget(s.tenant)
	}
	t.cfg.Telemetry.IncDisconnect()
	t.cfg.Telemetry.AddTeardownDrops(int64(len(dropped)))
	// Clear the dead host's last-reported gauges so the recycled tenant ID
	// does not inherit them.
	t.cfg.Telemetry.ResetE2EGauges(s.tenant)
	if t.cfg.Trace != nil {
		t.cfg.Trace(telemetry.Event{Stage: telemetry.StageTeardown, Tenant: s.tenant, Aux: int64(len(dropped))})
	}
	if s.live == 0 {
		t.freeTenants = append(t.freeTenants, s.tenant)
	}
}

// NewSession creates the server side of one initiator connection. send
// emits PDUs back to that initiator.
func (t *Target) NewSession(send func(proto.PDU)) (*Session, error) {
	if send == nil {
		return nil, errors.New("targetqp: nil send")
	}
	if t.nextTenant > 65535 && len(t.freeTenants) == 0 {
		return nil, errors.New("targetqp: tenant ID space exhausted (65536 initiators)")
	}
	s := &Session{target: t, send: send}
	return s, nil
}

// tReq is the target-side request pool entry: the single owner of the
// command and its in-capsule payload while the request waits in a PM
// queue (the PM itself stores only CIDs — the zero-copy property of
// §IV-B: this pool holds one reference per request, never copies).
type tReq struct {
	cmd  nvme.Command
	prio proto.Priority
	data []byte
	// arrivedAt is the Config.Clock value at command arrival, for
	// target-side service-latency samples (0 when no clock is wired).
	arrivedAt int64
	// sess is the session the request arrived on.
	sess *Session
	// done is the backend completion callback (r.complete), bound once
	// per pool entry so executing a request builds no closure.
	done func(nvme.Completion, []byte)
}

// complete is the backend completion callback of the request.
func (r *tReq) complete(cpl nvme.Completion, data []byte) {
	if r.sess == nil {
		return // a second callback for a retired entry — a backend bug
	}
	r.sess.onDeviceCompletion(r, cpl.Status, data)
}

// getReq draws a request-pool entry from the shard-local freelist.
func (t *Target) getReq() *tReq {
	if n := len(t.freeReqs); n > 0 {
		r := t.freeReqs[n-1]
		t.freeReqs = t.freeReqs[:n-1]
		return r
	}
	r := new(tReq)
	r.done = r.complete
	return r
}

// putReq retires a request-pool entry. The caller releases req.data first
// when it is pool-owned; putReq only drops the references.
func (t *Target) putReq(r *tReq) {
	*r = tReq{done: r.done}
	t.freeReqs = append(t.freeReqs, r)
}

// Session is the target side of one initiator connection.
type Session struct {
	target    *Target
	send      func(proto.PDU)
	tenant    proto.TenantID
	connected bool
	// dead marks a session torn down by CloseSession: no PDU may be sent
	// and no per-tenant telemetry recorded, but in-flight device callbacks
	// still run PM completion accounting so sibling batches release.
	dead bool
	// reqs is the request pool indexed by wire CID, sized from the
	// ICReq's queue depth and grown on demand; a CID is a uint16, so it
	// never exceeds the 65536-entry CID space. live counts its non-nil
	// entries.
	reqs []*tReq
	live int
}

// maxCIDs is the size of the 16-bit CID space.
const maxCIDs = 1 << 16

// lookup returns the pool entry for cid, or nil.
func (s *Session) lookup(cid nvme.CID) *tReq {
	if int(cid) < len(s.reqs) {
		return s.reqs[cid]
	}
	return nil
}

// track parks r in the pool under cid (which must be free), growing the
// table to cover a CID beyond the host's advertised queue depth.
func (s *Session) track(cid nvme.CID, r *tReq) {
	if int(cid) >= len(s.reqs) {
		n := max(2*len(s.reqs), int(cid)+1)
		grown := make([]*tReq, min(n, maxCIDs))
		copy(grown, s.reqs)
		s.reqs = grown
	}
	s.reqs[cid] = r
	s.live++
}

// forget removes cid's pool entry.
func (s *Session) forget(cid nvme.CID) {
	s.reqs[cid] = nil
	s.live--
}

// Tenant returns the tenant ID assigned to this connection.
func (s *Session) Tenant() proto.TenantID { return s.tenant }

// Dead reports whether the session has been torn down.
func (s *Session) Dead() bool { return s.dead }

// HandlePDU processes one inbound PDU from the initiator.
func (s *Session) HandlePDU(p proto.PDU) error {
	switch pdu := p.(type) {
	case *proto.ICReq:
		return s.handleICReq(pdu)
	case *proto.CapsuleCmd:
		return s.handleCmd(pdu)
	case *proto.TelemetryUpdate:
		return s.handleTelemetryUpdate(pdu)
	case *proto.TermReq:
		return fmt.Errorf("targetqp: connection terminated by host: FES=%d %s", pdu.FES, pdu.Reason)
	default:
		return fmt.Errorf("targetqp: unexpected PDU %v", p.PDUType())
	}
}

func (s *Session) handleICReq(pdu *proto.ICReq) error {
	if s.connected {
		return errors.New("targetqp: duplicate ICReq")
	}
	if pdu.PFV != ProtocolVersion {
		s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 1, Reason: "bad PFV"})
		return fmt.Errorf("targetqp: protocol version mismatch: %d", pdu.PFV)
	}
	t := s.target
	nsid := pdu.NSID
	if nsid == 0 {
		nsid = t.defaultNS
	}
	be, ok := t.backends[nsid]
	if !ok {
		s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 2,
			Reason: fmt.Sprintf("unknown namespace %d", nsid)})
		return fmt.Errorf("targetqp: connect to unknown namespace %d", nsid)
	}
	if n := len(t.freeTenants); n > 0 {
		// Reuse an ID released by a fully drained dead session.
		s.tenant = t.freeTenants[n-1]
		t.freeTenants = t.freeTenants[:n-1]
	} else {
		if t.nextTenant > 65535 {
			s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 2,
				Reason: "tenant ID space exhausted"})
			return errors.New("targetqp: tenant ID space exhausted (65536 initiators)")
		}
		s.tenant = proto.TenantID(t.nextTenant)
		t.nextTenant += t.cfg.TenantStride
	}
	t.sessions[s.tenant] = s
	// The host never has more than QueueDepth commands outstanding, so a
	// table of that size covers a well-behaved host without growing.
	s.reqs = make([]*tReq, max(int(pdu.QueueDepth), 1))
	t.stats.Connections++
	t.cfg.Telemetry.IncConnection()
	t.cfg.Telemetry.SetClass(s.tenant, pdu.Prio)
	s.connected = true
	ns := be.Namespace()
	resp := &proto.ICResp{
		PFV:        ProtocolVersion,
		Tenant:     s.tenant,
		MaxDataLen: t.cfg.MaxDataLen,
		BlockSize:  ns.BlockSize,
		Capacity:   ns.Capacity,
	}
	if t.cfg.Clock != nil {
		// Share the target clock so the host can estimate the offset
		// between the runtimes (flight-recorder correlation).
		resp.TargetClock = t.cfg.Clock()
	}
	s.send(resp)
	return nil
}

// handleTelemetryUpdate merges one host feedback PDU into the tenant's
// end-to-end view, feeds the autotune e2e term when it is enabled, and
// acks with the target clock so the host can re-estimate the clock offset
// on the same round trip. A geometry mismatch is a protocol error — the
// connection dies rather than silently corrupting per-tenant quantiles.
func (s *Session) handleTelemetryUpdate(pdu *proto.TelemetryUpdate) error {
	if !s.connected {
		return errors.New("targetqp: telemetry before handshake")
	}
	if s.dead {
		return nil
	}
	t := s.target
	if err := t.cfg.Telemetry.MergeE2E(s.tenant, pdu); err != nil {
		return fmt.Errorf("targetqp: %w", err)
	}
	t.stats.TelemetryUpdates++
	if at := t.cfg.Autotune; at != nil && at.E2EEnabled() {
		// Only the latency-sensitive classes join the signal: the e2e term
		// protects the same traffic the service term does.
		obj := at.E2EObjectiveNS()
		for i := range pdu.Classes {
			cd := &pdu.Classes[i]
			if !cd.Class.LatencySensitive() {
				continue
			}
			at.ObserveE2E(telemetry.ClassDeltaGoodBad(cd, obj))
		}
	}
	ack := &proto.TelemetryAck{EchoHostClock: pdu.HostClock}
	if t.cfg.Clock != nil {
		ack.TargetClock = t.cfg.Clock()
	}
	s.send(ack)
	return nil
}

func (s *Session) handleCmd(pdu *proto.CapsuleCmd) error {
	if !s.connected {
		return errors.New("targetqp: command before handshake")
	}
	t := s.target
	t.stats.CmdPDUs++
	cid := pdu.Cmd.CID
	if s.lookup(cid) != nil {
		s.respond(cid, nvme.StatusIDConflict, false)
		return nil
	}
	if len(pdu.Data) > int(t.cfg.MaxDataLen) {
		s.respond(cid, nvme.StatusInvalidField, false)
		return nil
	}

	prio := pdu.Prio
	if t.cfg.Mode == ModeBaseline {
		// Unmodified SPDK: the flag bits are reserved and ignored; all
		// requests take the FIFO path with per-request completions.
		prio = proto.PrioNormal
	}
	if !t.pm.Admit(s.tenant, prio) {
		// Admission control: past the pending cap the target pushes back
		// with a retryable busy status instead of buffering unboundedly.
		// The command never executes, so a verbatim resubmit is safe.
		s.respond(cid, nvme.StatusBusy, false)
		return nil
	}
	req := t.getReq()
	req.cmd, req.prio, req.data, req.sess = pdu.Cmd, prio, pdu.Data, s
	if t.cfg.PooledPayloads {
		// Take ownership of the pooled payload: the transport's
		// ReleaseInbound must not free data parked in the request pool.
		pdu.Data = nil
	}
	if t.cfg.Clock != nil {
		req.arrivedAt = t.cfg.Clock()
	}
	s.track(cid, req)
	t.cfg.Telemetry.IncSubmitted(s.tenant, int64(len(req.data)))
	if t.cfg.Trace != nil {
		t.cfg.Trace(telemetry.Event{Stage: telemetry.StageArrive, Tenant: s.tenant, CID: cid, Prio: prio, Aux: int64(len(req.data))})
	}

	disposition, batch := t.pm.OnCommand(s.tenant, cid, prio)
	switch disposition {
	case core.DispositionExecute:
		s.execute(req)
	case core.DispositionQueued:
		// Absorbed; the drain will release it.
	case core.DispositionDrainBatch:
		// Alg. 3: transition the whole window to the execution state.
		if err := t.executeBatch(batch); err != nil {
			return err
		}
	}
	// A scavenger command parked on an idle target, or a drained TC window,
	// may have made leftover capacity available — drain it now.
	if _, err := t.CheckScavenger(); err != nil {
		return err
	}
	return nil
}

// executeBatch transitions one released window (drain-, valve-, or
// watchdog-triggered) to the execution state, in FIFO order.
func (t *Target) executeBatch(batch []core.TaggedCID) error {
	for _, m := range batch {
		owner := t.sessions[m.Tenant]
		if owner == nil {
			return fmt.Errorf("targetqp: batch member for unknown tenant %d", m.Tenant)
		}
		r := owner.lookup(m.CID)
		if r == nil {
			return fmt.Errorf("targetqp: batch member CID %d missing from pool", m.CID)
		}
		owner.execute(r)
	}
	return nil
}

// CheckWatchdog runs the PM's drain watchdog: every TC queue stale past
// Config.DrainWatchdog is force-drained and executed now. Returns the
// number of queues expired. The caller must invoke it from the same
// context that delivers PDUs (the reactor/event loop); the transport runs
// it on a timer. No-op unless both Clock and DrainWatchdog are set.
func (t *Target) CheckWatchdog() (int, error) {
	if t.cfg.Clock == nil || t.cfg.DrainWatchdog <= 0 {
		return 0, nil
	}
	batches := t.pm.ExpireStale(t.cfg.Clock())
	for _, batch := range batches {
		if err := t.executeBatch(batch); err != nil {
			return len(batches), err
		}
	}
	return len(batches), nil
}

// CheckScavenger runs the PM's scavenger poll: parked best-effort queues
// drain when the target holds no LS request and no un-drained TC window
// (leftover capacity only), and force-drain once aged past
// Config.ScavengerAging so continuous foreground traffic cannot starve
// them forever. Returns the number of queues drained. Same caller
// contract as CheckWatchdog: invoke from the context that delivers PDUs;
// the TCP transport also runs it on a timer so a parked window ages out
// on an otherwise idle connection. The target calls it opportunistically
// after every command dispatch and device completion — the two points
// where leftover capacity appears.
func (t *Target) CheckScavenger() (int, error) {
	var now int64
	if t.cfg.Clock != nil {
		now = t.cfg.Clock()
	}
	batches := t.pm.PollScavenger(now)
	for _, batch := range batches {
		if err := t.executeBatch(batch); err != nil {
			return len(batches), err
		}
	}
	return len(batches), nil
}

// execute hands one request to its namespace's backend, routed by the
// command's NSID. LS requests jump the device queue in oPF mode.
func (s *Session) execute(req *tReq) {
	t := s.target
	be, ok := t.backends[req.cmd.NSID]
	if !ok {
		// Unknown namespace: complete with an error through the normal
		// completion path so PM window accounting stays exact.
		s.onDeviceCompletion(req, nvme.StatusInvalidNSID, nil)
		return
	}
	high := t.cfg.Mode == ModeOPF && req.prio.LatencySensitive()
	switch req.cmd.Opcode {
	case nvme.OpRead:
		t.stats.Reads++
	case nvme.OpWrite:
		t.stats.Writes++
	}
	be.Submit(req.cmd, req.data, high, req.done)
}

// onDeviceCompletion runs Alg. 4: ship read data, then ask the PM whether
// a response PDU goes on the wire.
func (s *Session) onDeviceCompletion(req *tReq, st nvme.Status, data []byte) {
	t := s.target
	tenant, cid := s.tenant, req.cmd.CID
	if s.lookup(cid) != req {
		// Completion for a request we no longer track — a backend bug.
		return
	}
	// Retire the pool entry before any PDU goes out: the host is entitled
	// to reuse the CID the moment it sees the response, and with an
	// in-process transport the reused command can arrive re-entrantly,
	// before this function returns.
	s.forget(cid)
	t.pm.Release(tenant, req.prio)
	if !st.OK() {
		t.stats.Errors++
	}
	if !s.dead {
		var svcLat int64 = -1 // <0 skips the latency sample
		if t.cfg.Clock != nil && req.arrivedAt != 0 {
			svcLat = t.cfg.Clock() - req.arrivedAt
		}
		if t.cfg.Autotune != nil && svcLat >= 0 && req.prio.LatencySensitive() {
			// Feed the controller's LS signal with the target-side service
			// latency — the quantity its objective is declared against.
			t.cfg.Autotune.ObserveLS(svcLat)
		}
		t.cfg.Telemetry.IncCompleted(tenant, req.prio, svcLat, int64(len(data)), st.OK())
		if t.cfg.Trace != nil {
			t.cfg.Trace(telemetry.Event{Stage: telemetry.StageDeviceComplete, Tenant: tenant, CID: cid, Prio: req.prio, Aux: svcLat})
		}
		if req.cmd.Opcode == nvme.OpRead && st.OK() && len(data) > 0 {
			// Read data always flows per request; only the completion
			// notification is coalesced (§III-B). Reads larger than
			// MaxDataLen are segmented into fragments with ascending
			// offsets, honouring the transfer bound the ICResp advertised
			// (and the protocol's 16 MiB PDU cap).
			maxSeg := int(t.cfg.MaxDataLen)
			if len(data) <= maxSeg {
				t.stats.DataPDUs++
				d := proto.GetC2HData()
				d.CCCID = cid
				d.Data = data
				if t.cfg.PooledPayloads {
					data = nil // the send path releases payload and struct
				}
				s.send(d)
			} else {
				for off := 0; off < len(data); off += maxSeg {
					end := off + maxSeg
					if end > len(data) {
						end = len(data)
					}
					t.stats.DataPDUs++
					d := proto.GetC2HData()
					d.CCCID = cid
					d.Offset = uint32(off)
					if t.cfg.PooledPayloads {
						// Fragments must not alias one pooled buffer: the
						// send path returns each payload to the pool
						// independently, so every fragment gets its own.
						d.Data = proto.GetBuf(end - off)
						copy(d.Data, data[off:end])
					} else {
						d.Data = data[off:end]
					}
					s.send(d)
				}
				if t.cfg.PooledPayloads {
					proto.PutBuf(data)
					data = nil
				}
			}
		}
	}
	if t.cfg.PooledPayloads {
		proto.PutBuf(data)     // read data that never went on the wire
		proto.PutBuf(req.data) // write payload, durably applied by now
		req.data = nil
	}
	t.putReq(req)
	// PM completion accounting runs even for tombstoned sessions: the dead
	// tenant's in-flight commands may be members of a shared drain window,
	// and siblings' coalesced responses must still release in order. The
	// dead tenant's own responses find no session and are discarded.
	var rdBuf [8]core.RespDecision // stack storage: respond may re-enter
	for _, rd := range t.pm.OnDeviceCompletion(rdBuf[:0], tenant, cid, st) {
		if !rd.Send {
			continue
		}
		dest := t.sessions[rd.Tenant]
		if dest == nil {
			continue
		}
		dest.respond(rd.CID, rd.Status, rd.Coalesced)
	}
	// The completion may have retired the last LS request or released a TC
	// window, freeing leftover capacity for parked scavenger queues. An
	// executeBatch failure here mirrors CheckWatchdog's (a batch member
	// whose tenant vanished — impossible while DropTenant purges dead
	// tenants' queues) and has no caller to surface to on this path.
	_, _ = t.CheckScavenger()
	if s.dead && s.live == 0 {
		// Last in-flight callback has landed: the tenant ID is now safe to
		// hand to a new connection.
		t.freeTenants = append(t.freeTenants, s.tenant)
	}
}

// respond emits one CapsuleResp. The struct comes from the proto pool
// and is recycled by the transport once it is on the wire.
func (s *Session) respond(cid nvme.CID, st nvme.Status, coalesced bool) {
	s.target.stats.RespPDUs++
	r := proto.GetCapsuleResp()
	r.Cpl = nvme.Completion{CID: cid, Status: st}
	r.Coalesced = coalesced
	s.send(r)
}
