package simcluster

import (
	"fmt"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/ssdsim"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// Cluster is one simulated deployment: an engine plus the nodes built on
// it. Build target nodes first, then initiator nodes, then Connect
// initiators; run the engine through Run/RunFor.
type Cluster struct {
	Eng       *simnet.Engine
	profile   Profile
	mode      targetqp.Mode
	shared    bool // shared-queue ablation
	seed      uint64
	atCfg     *autotune.Config
	scavAging int64
	hostTelNS int64
	telTicks  int // telemetry cadence events currently in the queue
	tel       *telemetry.Registry
	trace     telemetry.TraceFunc
	hostRec   *telemetry.Recorder
	targetRec *telemetry.Recorder
	errs      []error
	free      []*delivery // recycled PDU delivery records
}

// Options configures cluster-wide behaviour.
type Options struct {
	Profile Profile
	Mode    targetqp.Mode
	// SharedQueueAblation disables per-tenant queue isolation at every
	// target (ablation benchmark only).
	SharedQueueAblation bool
	// Seed drives every stochastic component (SSD jitter). Same seed,
	// same results.
	Seed uint64
	// Telemetry optionally attaches one live metrics registry to every
	// target node, recording the same target-side instruments the TCP
	// transport exposes — sim experiments assert on live signal instead
	// of only post-run histograms. Nil disables at zero cost. (Host-side
	// instruments attach per initiator via hostqp.Config.Telemetry.)
	Telemetry *telemetry.Registry
	// Trace optionally receives target-side PDU lifecycle events. Runs
	// on the event loop: keep it fast.
	Trace telemetry.TraceFunc
	// Autotune enables the closed-loop adaptive drain-window controller
	// at every target node (one controller per node, on the virtual
	// clock). The config's Clock/Telemetry fields are filled in from the
	// cluster's when unset. Nil runs the static windows bit-identically
	// to a cluster without the field.
	Autotune *autotune.Config
	// ScavengerAging bounds (in virtual nanoseconds) how long a parked
	// scavenger queue can starve behind continuous LS/TC traffic before
	// the target force-drains it anyway. The simulator needs no ticker:
	// the target re-polls on every command and completion, so foreground
	// traffic itself ages the parked window out. Zero disables the bound.
	ScavengerAging int64
	// HostTelemetryNS enables the in-band e2e feedback channel on every
	// initiator Connect creates: each emits one TelemetryUpdate every
	// HostTelemetryNS of virtual time (the simulated keep-alive cadence),
	// shipped through the same modelled NIC/link path as commands. Zero
	// (the default) disables — no update PDUs exist and the cluster is
	// bit-identical to one without the field.
	HostTelemetryNS int64
}

// New creates an empty cluster.
func New(opts Options) *Cluster {
	return &Cluster{
		Eng:       simnet.NewEngine(),
		profile:   opts.Profile,
		mode:      opts.Mode,
		shared:    opts.SharedQueueAblation,
		seed:      opts.Seed,
		atCfg:     opts.Autotune,
		scavAging: opts.ScavengerAging,
		hostTelNS: opts.HostTelemetryNS,
		tel:       opts.Telemetry,
		trace:     opts.Trace,
	}
}

// Telemetry returns the cluster's target-side metrics registry (nil when
// telemetry is disabled).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// AttachFlightRecorders creates a host-side and a target-side flight
// recorder on the cluster's virtual clock and wires them into every node
// built afterwards: call it before NewTargetNode/Connect. The target
// recorder chains onto the cluster trace hook; the host recorder attaches
// to each initiator created by Connect (unless that Config brings its
// own). cfg.Clock and cfg.Role are overridden.
func (c *Cluster) AttachFlightRecorders(cfg telemetry.RecorderConfig) (host, target *telemetry.Recorder) {
	hostCfg, targetCfg := cfg, cfg
	hostCfg.Clock, targetCfg.Clock = c.Eng.Now, c.Eng.Now
	hostCfg.Role, targetCfg.Role = "host", "target"
	c.hostRec = telemetry.NewRecorder(hostCfg)
	c.targetRec = telemetry.NewRecorder(targetCfg)
	c.trace = telemetry.ChainTrace(c.trace, c.targetRec.Trace)
	return c.hostRec, c.targetRec
}

// HostRecorder returns the attached host-side flight recorder (nil when
// AttachFlightRecorders was not called).
func (c *Cluster) HostRecorder() *telemetry.Recorder { return c.hostRec }

// TargetRecorder returns the attached target-side flight recorder.
func (c *Cluster) TargetRecorder() *telemetry.Recorder { return c.targetRec }

// Profile returns the cluster's platform profile.
func (c *Cluster) Profile() Profile { return c.profile }

// Mode returns the target operating mode (baseline or oPF).
func (c *Cluster) Mode() targetqp.Mode { return c.mode }

// Errors returns protocol errors recorded during the run. A correct
// simulation finishes with none.
func (c *Cluster) Errors() []error { return c.errs }

func (c *Cluster) fail(err error) {
	if err != nil {
		c.errs = append(c.errs, err)
	}
}

// TargetNode is one storage server: a poller CPU, a NIC, one SSD, and one
// NVMe-oPF (or baseline) target serving every connected initiator.
type TargetNode struct {
	c      *Cluster
	Name   string
	CPU    *simnet.CPU
	NIC    *simnet.Link // shared ingress/egress pipe of this node
	SSD    *ssdsim.SSD
	Target *targetqp.Target
}

// NewTargetNode builds a target node. backed enables the SSD's in-memory
// data store (needed by data-integrity tests and the HDF5 experiments;
// timing-only experiments leave it off).
func (c *Cluster) NewTargetNode(name string, backed bool) (*TargetNode, error) {
	cpu := simnet.NewCPU(c.Eng, name+"/cpu", c.profile.TargetCPU)
	// The node NIC is modelled as a link with zero propagation: it only
	// adds the node's serialization bottleneck shared by all peers.
	nicCfg := c.profile.Link
	nicCfg.PropagationDelay = 0
	nic := simnet.NewLink(c.Eng, name+"/nic", nicCfg)

	ssdCfg := c.profile.SSD
	ssdCfg.Seed = c.seed*1315423911 + uint64(len(name)) + 1
	ssdCfg.Backed = backed
	ssd, err := ssdsim.New(c.Eng, ssdCfg)
	if err != nil {
		return nil, err
	}
	tn := &TargetNode{c: c, Name: name, CPU: cpu, NIC: nic, SSD: ssd}
	var ctrl *autotune.Controller
	if c.atCfg != nil {
		// Each target node owns one controller on the virtual clock — the
		// simulated analogue of the TCP server's per-shard controllers.
		ac := *c.atCfg
		if ac.Clock == nil {
			ac.Clock = c.Eng.Now
		}
		if ac.Telemetry == nil {
			ac.Telemetry = c.tel
		}
		var err error
		ctrl, err = autotune.New(ac)
		if err != nil {
			return nil, err
		}
	}
	tgt, err := targetqp.NewTarget(targetqp.Config{
		Mode:                c.mode,
		MaxPending:          4096,
		SharedQueueAblation: c.shared,
		ScavengerAging:      time.Duration(c.scavAging),
		Telemetry:           c.tel,
		Trace:               c.trace,
		Clock:               c.Eng.Now, // virtual time drives latency samples
		Autotune:            ctrl,
	}, &ssdBackend{node: tn})
	if err != nil {
		return nil, err
	}
	tn.Target = tgt
	return tn, nil
}

// ssdBackend adapts the simulated SSD to the targetqp.Backend interface,
// charging the target poller's submission cost.
type ssdBackend struct {
	node *TargetNode
	free []*submission // recycled submission records
}

// submission is one command waiting out the poller's submission cost
// before it reaches the SSD; run is bound to the record once.
type submission struct {
	b    *ssdBackend
	req  ssdsim.Request
	high bool
	run  func()
}

func (s *submission) submit() {
	b, req, high := s.b, s.req, s.high
	s.req = ssdsim.Request{}
	b.free = append(b.free, s)
	b.node.SSD.Submit(req, high)
}

// Namespace implements targetqp.Backend.
func (b *ssdBackend) Namespace() nvme.Namespace { return b.node.SSD.Namespace() }

// Submit implements targetqp.Backend.
func (b *ssdBackend) Submit(cmd nvme.Command, data []byte, highPrio bool, done func(nvme.Completion, []byte)) {
	var s *submission
	if n := len(b.free); n > 0 {
		s = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		s = &submission{b: b}
		s.run = s.submit
	}
	s.req, s.high = ssdsim.Request{Cmd: cmd, Data: data, Done: done}, highPrio
	b.node.CPU.Exec(b.node.CPU.SubmitCost(), s.run)
}

// InitiatorNode is one client machine: a poller CPU and a NIC-link to its
// target node. Several initiators (tenants) may run on one node, sharing
// both — the contention that scaling pattern 1 (Fig. 8(a–c)) measures.
type InitiatorNode struct {
	c      *Cluster
	Name   string
	CPU    *simnet.CPU
	Link   *simnet.Link // host NIC + cable to the target node
	target *TargetNode
}

// NewInitiatorNode builds a client node wired to one target node (the
// paper's experiments pair each initiator-node with a single target-node).
func (c *Cluster) NewInitiatorNode(name string, target *TargetNode) *InitiatorNode {
	cpu := simnet.NewCPU(c.Eng, name+"/cpu", c.profile.HostCPU)
	link := simnet.NewLink(c.Eng, name+"<->"+target.Name, c.profile.Link)
	return &InitiatorNode{c: c, Name: name, CPU: cpu, Link: link, target: target}
}

// Initiator is one tenant: a host queue pair connected over the node's
// link to the target node.
type Initiator struct {
	Node    *InitiatorNode
	Session *hostqp.Session
	tsess   *targetqp.Session
}

// payloadBytes returns the data bytes a PDU carries, which drive per-byte
// CPU costs (headers are covered by the fixed per-PDU cost).
func payloadBytes(p proto.PDU) int {
	switch pdu := p.(type) {
	case *proto.CapsuleCmd:
		return len(pdu.Data)
	case *proto.C2HData:
		return len(pdu.Data)
	case *proto.H2CData:
		return len(pdu.Data)
	default:
		return 0
	}
}

// standalonePDU reports whether a PDU is emitted as an isolated small send
// (a completion notification triggered by a device-completion event) as
// opposed to the batched submission/data path.
func standalonePDU(p proto.PDU) bool {
	_, isResp := p.(*proto.CapsuleResp)
	return isResp
}

// delivery carries one PDU across the modelled fabric: sender poller tx,
// the two NIC/link hops, receiver poller rx, then the receiving session's
// HandlePDU. The record walks the hops through the same Exec/Send calls,
// in the same order, as one closure per hop would; step is bound once per
// record and the record is recycled, so a steady-state PDU allocates
// nothing here.
type delivery struct {
	c          *Cluster
	ini        *Initiator
	pdu        proto.PDU
	size       int
	payload    int
	standalone bool
	toHost     bool // target -> host; otherwise host -> target
	hop        int
	step       func() // d.advance, bound once
}

// send starts p on its way: toHost from the target session to ini's host
// session, otherwise from ini's host session to the target.
func (c *Cluster) send(ini *Initiator, p proto.PDU, toHost bool) {
	var d *delivery
	if n := len(c.free); n > 0 {
		d = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		d = &delivery{c: c}
		d.step = d.advance
	}
	d.ini, d.pdu, d.toHost, d.hop = ini, p, toHost, 0
	d.size, d.payload, d.standalone = p.WireSize(), payloadBytes(p), standalonePDU(p)
	d.advance()
}

// advance performs the next hop, then delivers once the receiving
// poller has taken the PDU in.
func (d *delivery) advance() {
	host, tn := d.ini.Node, d.ini.Node.target
	d.hop++
	if d.toHost {
		// Target -> host: poller tx (a standalone completion pays the
		// small-send surcharge), target NIC, host link, host rx.
		switch d.hop {
		case 1:
			tn.CPU.Exec(tn.CPU.TxCost(d.payload, d.standalone), d.step)
		case 2:
			tn.NIC.Send(simnet.DirBtoA, d.size, d.step)
		case 3:
			host.Link.Send(simnet.DirBtoA, d.size, d.step)
		case 4:
			host.CPU.Exec(host.CPU.RxCost(d.payload, d.standalone), d.step)
		default:
			d.deliver()
		}
		return
	}
	// Host -> target: poller tx, host link, target NIC, target rx.
	switch d.hop {
	case 1:
		host.CPU.Exec(host.CPU.TxCost(d.payload, false), d.step)
	case 2:
		host.Link.Send(simnet.DirAtoB, d.size, d.step)
	case 3:
		tn.NIC.Send(simnet.DirAtoB, d.size, d.step)
	case 4:
		tn.CPU.Exec(tn.CPU.RxCost(d.payload, d.standalone), d.step)
	default:
		d.deliver()
	}
}

// deliver returns the record to the free list, then hands the PDU to the
// receiving session, which may send (and so reuse the record) at once.
// The sessions draw per-request PDU structs from the proto pools and keep
// no reference to them past HandlePDU, so the struct is recycled here —
// never its payload, which the simulator does not pool.
func (d *delivery) deliver() {
	c, ini, p, toHost := d.c, d.ini, d.pdu, d.toHost
	d.ini, d.pdu = nil, nil
	c.free = append(c.free, d)
	if toHost {
		c.fail(ini.Session.HandlePDU(p))
	} else {
		c.fail(ini.tsess.HandlePDU(p))
	}
	proto.Recycle(p)
}

// Connect creates one initiator of the given host configuration on this
// node and starts its handshake. Run the engine (even one event batch)
// before submitting I/O; Session.OnConnect sequences that naturally.
func (n *InitiatorNode) Connect(cfg hostqp.Config) (*Initiator, error) {
	c := n.c
	if cfg.Recorder == nil {
		cfg.Recorder = c.hostRec // nil when no recorders are attached
	}
	ini := &Initiator{Node: n}

	tsess, err := n.target.Target.NewSession(func(p proto.PDU) { c.send(ini, p, true) })
	if err != nil {
		return nil, err
	}
	ini.tsess = tsess

	hostSend := func(p proto.PDU) { c.send(ini, p, false) }
	sess, err := hostqp.New(cfg, hostSend, c.Eng.Now)
	if err != nil {
		return nil, err
	}
	ini.Session = sess
	sess.Start()
	if c.hostTelNS > 0 {
		sess.EnableE2E()
		var tick func()
		tick = func() {
			// Sample liveness before emitting, and count only non-cadence
			// events as work: the update we are about to send queues its
			// own delivery events, and other tenants' heartbeats sit in the
			// queue alongside real I/O — if either counted, the cadences
			// would keep each other (and Run()) alive forever on an idle
			// cluster. With the check first and sibling ticks excluded, an
			// otherwise-idle cluster gets one final update per tenant and
			// every cadence stops, so Run() still terminates.
			c.telTicks--
			alive := c.Eng.Pending() > c.telTicks
			if u := sess.BuildTelemetryUpdate(); u != nil {
				hostSend(u)
			}
			if alive {
				c.telTicks++
				c.Eng.Schedule(time.Duration(c.hostTelNS), tick)
			}
		}
		c.telTicks++
		c.Eng.Schedule(time.Duration(c.hostTelNS), tick)
	}
	return ini, nil
}

// Run processes events until the queue empties; RunFor advances the
// virtual clock by d nanoseconds.
func (c *Cluster) Run() int64 { return c.Eng.Run() }

// RunFor advances the cluster by d nanoseconds of virtual time.
func (c *Cluster) RunFor(d int64) int64 { return c.Eng.RunUntil(c.Eng.Now() + d) }

// CheckHealthy returns an error if any protocol error was recorded.
func (c *Cluster) CheckHealthy() error {
	if len(c.errs) > 0 {
		return fmt.Errorf("simcluster: %d protocol errors, first: %w", len(c.errs), c.errs[0])
	}
	return nil
}
