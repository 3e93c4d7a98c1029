package simcluster

import (
	"fmt"
	"runtime"
	"testing"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// runnerPin is the exact per-runner outcome a seeded fan-in must
// reproduce.
type runnerPin struct {
	Completed              int64
	LatSum, LatMin, LatMax int64
}

// runFanInMix runs a fixed-seed 4 LS + 8 TC + 4 scavenger fan-in on the
// 100 Gbps profile for 20 ms of virtual time, every tenant on its own
// initiator node, and returns the final clock, the target's counters and
// each runner's outcome in build order (LS, TC, then scavenger).
func runFanInMix(t testing.TB) (int64, targetqp.Stats, core.TargetPMStats, []runnerPin) {
	t.Helper()
	c, tn, runners := buildFanInMix(t, 20_000_000)
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	pins := make([]runnerPin, len(runners))
	for i, r := range runners {
		res := r.Result()
		pins[i] = runnerPin{res.Completed, res.Latency.Sum(), res.Latency.Min(), res.Latency.Max()}
	}
	return c.Eng.Now(), tn.Target.Stats(), tn.Target.PMStats(), pins
}

// buildFanInMix builds runFanInMix's cluster with submission stopping at
// stop nanoseconds and starts its runners; the caller runs the engine.
func buildFanInMix(t testing.TB, stop int64) (*Cluster, *TargetNode, []*workload.Runner) {
	t.Helper()
	const (
		nLS, nTC, nSC = 4, 8, 4
		warm          = 2_000_000
	)
	c := New(Options{Profile: ProfileCL(), Mode: targetqp.ModeOPF, Seed: 5, ScavengerAging: 2_000_000})
	tn, err := c.NewTargetNode("tgt", false)
	if err != nil {
		t.Fatal(err)
	}
	region := tn.SSD.Namespace().Capacity / (nLS + nTC + nSC)
	tcWindow := core.OptimalWindow(core.WorkloadMixed, 100, nTC, 128)
	var runners []*workload.Runner
	add := func(cfg hostqp.Config, mix workload.Mix) {
		idx := len(runners)
		ini, err := c.NewInitiatorNode(fmt.Sprintf("n%d", idx), tn).Connect(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := workload.NewRunner(ini.Session, c.Eng.Now, workload.Spec{
			Mix: mix, Pattern: workload.Random, Blocks: 1, QueueDepth: cfg.QueueDepth,
			RegionStart: uint64(idx) * region, RegionBlocks: region,
			WarmupUntil: warm, StopAt: stop, Seed: uint64(idx) + 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	for i := 0; i < nLS; i++ {
		add(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, workload.ReadOnly)
	}
	for i := 0; i < nTC; i++ {
		add(hostqp.Config{Class: proto.PrioThroughputCritical, Window: tcWindow, QueueDepth: 128, NSID: 1}, workload.Mixed5050)
	}
	for i := 0; i < nSC; i++ {
		add(hostqp.Config{Class: proto.PrioScavenger, Window: 1, QueueDepth: 32, NSID: 1}, workload.WriteOnly)
	}
	for _, r := range runners {
		r.Start()
	}
	return c, tn, runners
}

// TestFanInSteadyStateAllocs: once warm, the simulated per-IO path —
// runner, host session, fabric delivery, target, PM, device model —
// allocates at most once per completed IO on the mixed fan-in (what is
// left is per-window PM bookkeeping).
func TestFanInSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, _, runners := buildFanInMix(t, 40_000_000)
	completed := func() (n int64) {
		for _, r := range runners {
			n += r.Result().Completed
		}
		return n
	}
	c.Eng.RunUntil(10_000_000) // warm: pools, tables and heaps grown
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, before := ms.Mallocs, completed()
	c.Eng.RunUntil(30_000_000)
	runtime.ReadMemStats(&ms)
	ios := completed() - before
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if ios < 2000 {
		t.Fatalf("only %d IOs completed in 20 ms", ios)
	}
	perIO := float64(ms.Mallocs-mallocs) / float64(ios)
	t.Logf("%.3f allocs per IO over %d IOs", perIO, ios)
	if perIO > 1 {
		t.Fatalf("steady-state fan-in: %.2f allocs per IO, want <= 1", perIO)
	}
}

// TestFanInMixDeterminismPin pins the exact outcome of a seeded mixed
// fan-in. Any change to the event engine, the delivery path or the
// priority manager that reorders even one simulated event moves these
// numbers, so an optimisation of the simulator's host cost must leave
// them untouched.
func TestFanInMixDeterminismPin(t *testing.T) {
	now, ts, pm, pins := runFanInMix(t)
	if want := int64(25705164); now != want {
		t.Errorf("final clock = %d, want %d", now, want)
	}
	wantTS := targetqp.Stats{Connections: 16, CmdPDUs: 7288, RespPDUs: 1246, DataPDUs: 3913, Reads: 3913, Writes: 3363}
	if ts != wantTS {
		t.Errorf("target stats\n got %+v\nwant %+v", ts, wantTS)
	}
	wantPM := core.TargetPMStats{
		LSBypassed: 780, TCQueued: 5850, Drains: 398, RespsSent: 1246, RespsSuppressed: 6042,
		ScavQueued: 260, ScavDrains: 68, ScavAgedDrains: 34,
	}
	if pm != wantPM {
		t.Errorf("PM stats\n got %+v\nwant %+v", pm, wantPM)
	}
	wantPins := []runnerPin{
		// LS
		{196, 17977177, 80892, 119260},
		{195, 17961636, 79985, 125995},
		{194, 17954238, 80310, 114905},
		{195, 17933881, 80645, 123877},
		// TC
		{784, 2225339008, 1999589, 3975838},
		{784, 2228428128, 2060611, 3984047},
		{784, 2242065664, 2236524, 3977202},
		{784, 2238414320, 2172893, 3984254},
		{784, 2239023952, 2117268, 3982165},
		{784, 2249722896, 2276210, 3974706},
		{768, 2194308000, 2341045, 3986755},
		{768, 2198563872, 2417145, 3970986},
		// scavenger
		{64, 366441196, 3846800, 18541750},
		{64, 412925836, 5832398, 19926759},
		{64, 413408680, 5835698, 19942153},
		{64, 413966268, 5860876, 19951825},
	}
	for i, want := range wantPins {
		if pins[i] != want {
			t.Errorf("runner %d = %+v, want %+v", i, pins[i], want)
		}
	}
}

// A steady-state PDU round trip takes its delivery records from the
// cluster's free list: a TelemetryUpdate crossing host -> target and its
// TelemetryAck crossing back allocate only the ack the target session
// builds, not one record or closure per hop.
func TestDeliveryRoundTripAllocs(t *testing.T) {
	c := New(Options{Profile: ProfileCL(), Mode: targetqp.ModeOPF, Seed: 1})
	tn, err := c.NewTargetNode("tgt", false)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := c.NewInitiatorNode("h", tn).Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	upd := &proto.TelemetryUpdate{SubBits: telemetry.HistSubBits}
	roundTrip := func() {
		c.send(ini, upd, false)
		c.Run()
	}
	roundTrip() // handshake, heap growth, first records
	records := len(c.free)
	allocs := testing.AllocsPerRun(200, roundTrip)
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if got := tn.Target.Stats().TelemetryUpdates; got != 202 {
		t.Fatalf("target merged %d updates, want 202", got)
	}
	if allocs != 1 {
		t.Fatalf("round trip allocated %.1f times, want 1 (the TelemetryAck)", allocs)
	}
	if len(c.free) != records {
		t.Fatalf("free list grew from %d to %d records in steady state", records, len(c.free))
	}
}
