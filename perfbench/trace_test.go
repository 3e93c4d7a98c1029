package main

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// ev builds one synthetic trace event.
func ev(t int64, st telemetry.Stage, tenant, cid int, prio proto.Priority, aux int64) event {
	return mkEvent(t, telemetry.Event{Stage: st, Tenant: proto.TenantID(tenant), CID: nvme.CID(cid), Prio: prio, Aux: aux})
}

const (
	ls    = proto.PrioLatencySensitive
	tc    = proto.PrioThroughputCritical
	tcDr  = proto.PrioTCDraining
	scav  = proto.PrioScavenger
	sub   = telemetry.StageSubmit
	arr   = telemetry.StageArrive
	enq   = telemetry.StageEnqueue
	drn   = telemetry.StageDrainStart
	dev   = telemetry.StageDeviceComplete
	ntf   = telemetry.StageCoalescedNotify
	rpl   = telemetry.StageReplay
	cpl   = telemetry.StageComplete
	appDn = stageAppDone
)

func TestReduceStagesTCP(t *testing.T) {
	host := []event{
		// LS tenant 0, CID 1, Conn.Submit at 7: bypass, no queue/notify.
		ev(10, sub, 0, 1, ls, 0),
		ev(45, cpl, 0, 1, ls, 35),
		ev(47, appDn, 0, 1, 0, 40),
		// The same CID reused by the next LS request (Conn.Submit at 49).
		ev(50, sub, 0, 1, ls, 0),
		ev(70, cpl, 0, 1, ls, 20),
		ev(71, appDn, 0, 1, 0, 22),
	}
	tcHost := []event{
		// TC tenant 1, window of 2: CID 5 parked, CID 6 drains it.
		ev(11, sub, 1, 5, tc, 0),
		ev(12, telemetry.StageDrainMark, 1, 6, tcDr, 2),
		ev(12, sub, 1, 6, tcDr, 0),
		ev(40, rpl, 1, 5, tc, 29),
		ev(40, cpl, 1, 5, tc, 29),
		ev(41, appDn, 1, 5, 0, 31),
		ev(42, rpl, 1, 6, tcDr, 30),
		ev(42, cpl, 1, 6, tcDr, 30),
		ev(43, appDn, 1, 6, 0, 33),
		// An idle-flush request: it completes without a Done marker and
		// its CID is reused without counting as an orphan.
		ev(80, sub, 1, 5, tcDr, 0),
		ev(95, cpl, 1, 5, tcDr, 15),
	}
	target := []event{
		ev(20, arr, 0, 1, ls, 0),
		ev(21, arr, 1, 5, tc, 0),
		ev(22, enq, 1, 5, tc, 1),
		ev(23, arr, 1, 6, tcDr, 0),
		ev(24, drn, 1, 6, tcDr, 2),
		ev(30, dev, 0, 1, ls, 10),
		ev(31, dev, 1, 5, tc, 10),
		ev(33, dev, 1, 6, tcDr, 10),
		ev(35, ntf, 1, 6, 0, 2),
		ev(60, arr, 0, 1, ls, 0),
		ev(65, dev, 0, 1, ls, 5),
		ev(85, arr, 1, 5, tcDr, 0),
		ev(86, drn, 1, 5, tcDr, 1),
		ev(90, dev, 1, 5, tcDr, 4),
		ev(92, ntf, 1, 5, 0, 1),
	}
	st := reduceStages([][]event{host, tcHost, target}, true, 0, 1000)
	if st.orphans != 0 || st.negative != 0 {
		t.Fatalf("orphans=%d negative=%d", st.orphans, st.negative)
	}
	want := map[int][][numStages]int64{
		clsLS: {{5, 10, 0, 10, 0, 15}, {2, 10, 0, 5, 0, 5}},
		clsTC: {{2, 10, 3, 7, 4, 5}, {3, 11, 1, 9, 2, 7}},
	}
	for c, reqs := range want {
		if len(st.latency[c]) != len(reqs) {
			t.Fatalf("%s: %d requests reduced, want %d", className[c], len(st.latency[c]), len(reqs))
		}
		for i, w := range reqs {
			var sum int64
			for s := 0; s < numStages; s++ {
				if got := st.samples[c][s][i]; got != w[s] {
					t.Errorf("%s request %d %s = %d, want %d", className[c], i, stageName[s], got, w[s])
				}
				sum += w[s]
			}
			if st.latency[c][i] != sum {
				t.Errorf("%s request %d latency %d, stages sum to %d", className[c], i, st.latency[c][i], sum)
			}
		}
	}
	if st.present[clsLS][stQueue] || st.present[clsLS][stNotify] {
		t.Error("LS bypass must have no queue or notify stage")
	}
	if !st.present[clsTC][stQueue] || !st.present[clsTC][stNotify] || !st.present[clsTC][stHandoff] {
		t.Error("coalesced TC must have handoff, queue and notify stages")
	}
	stages, mean := st.means(clsTC)
	var sum float64
	for _, v := range stages {
		sum += v
	}
	if sum != mean || mean != 32 {
		t.Errorf("TC stage means sum to %v, mean latency %v (want 32)", sum, mean)
	}

	// The window keeps only requests ending inside it.
	if st := reduceStages([][]event{host, tcHost, target}, true, 46, 60); len(st.latency[clsLS]) != 1 || len(st.latency[clsTC]) != 0 {
		t.Errorf("window [46,60]: LS %d TC %d requests, want 1 and 0", len(st.latency[clsLS]), len(st.latency[clsTC]))
	}
}

func TestReduceStagesScavengerChunksAndValve(t *testing.T) {
	// Simulator style: no Done markers, the complete event ends a request.
	events := []event{
		// Scavenger tenant 3: three parked requests released in chunks of
		// two and one; drain-start names the chunk's last CID.
		ev(1, sub, 3, 1, scav, 0), ev(2, sub, 3, 2, scav, 0), ev(3, sub, 3, 3, scav, 0),
		ev(11, arr, 3, 1, scav, 0), ev(12, enq, 3, 1, scav, 1),
		ev(13, arr, 3, 2, scav, 0), ev(14, enq, 3, 2, scav, 2),
		ev(15, arr, 3, 3, scav, 0), ev(16, enq, 3, 3, scav, 3),
		ev(20, drn, 3, 2, scav, 2),
		ev(25, dev, 3, 1, scav, 0), ev(26, dev, 3, 2, scav, 0),
		ev(27, ntf, 3, 2, 0, 2),
		ev(30, drn, 3, 3, scav, 1),
		ev(31, cpl, 3, 1, scav, 0), ev(31, cpl, 3, 2, scav, 0),
		ev(35, dev, 3, 3, scav, 0), ev(36, ntf, 3, 3, 0, 1),
		ev(40, cpl, 3, 3, scav, 0),
		// TC tenant 4: a safety-valve drain whose own CID was parked.
		ev(2, sub, 4, 7, tc, 0), ev(3, sub, 4, 8, tc, 0),
		ev(12, arr, 4, 7, tc, 0), ev(12, enq, 4, 7, tc, 1),
		ev(13, arr, 4, 8, tc, 0), ev(13, enq, 4, 8, tc, 2),
		ev(13, drn, 4, 8, tc, 2),
		ev(18, dev, 4, 8, tc, 0), ev(19, dev, 4, 7, tc, 0),
		ev(21, ntf, 4, 8, 0, 2),
		ev(24, cpl, 4, 7, tc, 0), ev(24, cpl, 4, 8, tc, 0),
	}
	st := reduceStages([][]event{events}, false, 0, 100)
	if st.orphans != 0 || st.negative != 0 {
		t.Fatalf("orphans=%d negative=%d", st.orphans, st.negative)
	}
	wantSC := [][numStages]int64{
		{0, 10, 9, 5, 2, 4},  // CID 1: chunk one
		{0, 11, 7, 6, 1, 4},  // CID 2: chunk one
		{0, 12, 15, 5, 1, 4}, // CID 3: chunk two
	}
	wantTC := [][numStages]int64{
		{0, 10, 1, 6, 2, 3}, // CID 7
		{0, 10, 0, 5, 3, 3}, // CID 8
	}
	for c, want := range map[int][][numStages]int64{clsSC: wantSC, clsTC: wantTC} {
		if len(st.latency[c]) != len(want) {
			t.Fatalf("%s: %d requests, want %d", className[c], len(st.latency[c]), len(want))
		}
		// Requests are reduced in completion order.
		for i, w := range want {
			for s := 0; s < numStages; s++ {
				if got := st.samples[c][s][i]; got != w[s] {
					t.Errorf("%s request %d %s = %d, want %d", className[c], i, stageName[s], got, w[s])
				}
			}
		}
	}
	if st.present[clsSC][stHandoff] {
		t.Error("without Done markers there is no hand-off stage")
	}
}

func TestReduceStagesFlagsMismatches(t *testing.T) {
	events := []event{
		ev(10, sub, 0, 1, ls, 0),
		// An arrive for a CID never submitted, and a device completion
		// stamped before its request arrived (a mismatched stream).
		ev(11, arr, 0, 9, ls, 0),
		ev(20, dev, 0, 1, ls, 0),
		ev(21, arr, 0, 1, ls, 0),
		ev(30, cpl, 0, 1, ls, 0),
	}
	st := reduceStages([][]event{events}, false, 0, 100)
	if st.orphans == 0 {
		t.Error("an unmatched arrive must count as an orphan")
	}
	if st.negative == 0 && len(st.latency[clsLS]) != 0 {
		t.Error("a request with out-of-order events must not be reported")
	}
}

func TestEventPacking(t *testing.T) {
	e := ev(1<<40+12345, telemetry.StageForcedDrain, 65535, 4095, scav, -3)
	if e.t() != 1<<40+12345 || e.stage() != telemetry.StageForcedDrain || e.prio() != scav ||
		e.tenant != 65535 || e.cid != 4095 || e.aux != -3 {
		t.Fatalf("round trip lost a field: %+v", e)
	}
	if big := ev(1, appDn, 0, 0, 0, 1<<40); big.aux != 1<<31-1 {
		t.Errorf("aux must saturate, got %d", big.aux)
	}
}
