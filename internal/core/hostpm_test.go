package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

func TestStampDrainEveryWindow(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 4)
	var drains []int
	for i := 0; i < 12; i++ {
		p := h.Stamp(nvme.CID(i))
		if p.Draining() {
			drains = append(drains, i)
		} else if p != proto.PrioThroughputCritical {
			t.Fatalf("request %d priority = %v", i, p)
		}
	}
	want := []int{3, 7, 11}
	if len(drains) != len(want) {
		t.Fatalf("drains at %v, want %v", drains, want)
	}
	for i := range want {
		if drains[i] != want[i] {
			t.Fatalf("drains at %v, want %v", drains, want)
		}
	}
	if h.Stats().DrainsInserted != 3 {
		t.Fatalf("DrainsInserted = %d", h.Stats().DrainsInserted)
	}
}

func TestStampLSNeverQueues(t *testing.T) {
	h := NewHostPM(proto.PrioLatencySensitive, 8)
	for i := 0; i < 10; i++ {
		if p := h.Stamp(nvme.CID(i)); p != proto.PrioLatencySensitive {
			t.Fatalf("LS stamp = %v", p)
		}
	}
	if h.Pending() != 0 {
		t.Fatalf("LS connection queued CIDs: %d", h.Pending())
	}
	done, err := h.OnResponse(nil, 3, false)
	if err != nil || len(done) != 1 || done[0] != 3 {
		t.Fatalf("LS response handling: %v, %v", done, err)
	}
}

func TestWindowOneMeansNoCoalescing(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 1)
	for i := 0; i < 5; i++ {
		if p := h.Stamp(nvme.CID(i)); !p.Draining() {
			t.Fatalf("window-1 request %d not draining: %v", i, p)
		}
	}
}

func TestWindowClamp(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 0)
	if h.Window() != 1 {
		t.Fatalf("window = %d", h.Window())
	}
	h.SetWindow(-3)
	if h.Window() != 1 {
		t.Fatalf("window = %d after negative SetWindow", h.Window())
	}
	h.SetWindow(64)
	if h.Window() != 64 {
		t.Fatalf("window = %d", h.Window())
	}
}

func TestCoalescedReplayCompletesInOrder(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 4)
	for i := 0; i < 4; i++ {
		h.Stamp(nvme.CID(i))
	}
	done, err := h.OnResponse(nil, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("done = %v", done)
	}
	for i, cid := range done {
		if cid != nvme.CID(i) {
			t.Fatalf("replay out of order: %v", done)
		}
	}
	if h.Pending() != 0 {
		t.Fatalf("pending = %d", h.Pending())
	}
	st := h.Stats()
	if st.CoalescedResps != 1 || st.ReplayCompleted != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalescedReplayPartial(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 2)
	for i := 0; i < 6; i++ {
		h.Stamp(nvme.CID(i))
	}
	// First window's drain (CID 1) completes; CIDs 2..5 remain.
	done, err := h.OnResponse(nil, 1, true)
	if err != nil || len(done) != 2 {
		t.Fatalf("done = %v, err = %v", done, err)
	}
	if h.Pending() != 4 {
		t.Fatalf("pending = %d", h.Pending())
	}
}

func TestUnknownCIDResponseIsError(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 4)
	h.Stamp(0)
	if _, err := h.OnResponse(nil, 99, true); err == nil {
		t.Fatal("unknown coalesced CID accepted")
	}
	if _, err := h.OnResponse(nil, 99, false); err == nil {
		t.Fatal("unknown individual CID accepted")
	}
	// The failed responses must not perturb the pending queue.
	if h.Pending() != 1 {
		t.Fatalf("pending = %d", h.Pending())
	}
}

func TestIndividualTCResponseRemoves(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 8)
	for i := 0; i < 4; i++ {
		h.Stamp(nvme.CID(i))
	}
	// Premature-flush victim response for CID 2 (mid-queue).
	done, err := h.OnResponse(nil, 2, false)
	if err != nil || len(done) != 1 || done[0] != 2 {
		t.Fatalf("done = %v, err = %v", done, err)
	}
	// Later coalesced response for CID 3 completes 0, 1, 3.
	done, err = h.OnResponse(nil, 3, true)
	if err != nil || len(done) != 3 {
		t.Fatalf("done = %v, err = %v", done, err)
	}
}

func TestForceDrainNext(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 100)
	h.Stamp(0)
	h.ForceDrainNext()
	if p := h.Stamp(1); !p.Draining() {
		t.Fatalf("forced drain not applied: %v", p)
	}
	// Counter resets after the forced drain.
	if p := h.Stamp(2); p.Draining() {
		t.Fatal("window counter not reset after forced drain")
	}
}

func TestForceDrainNextNoopOnLS(t *testing.T) {
	h := NewHostPM(proto.PrioLatencySensitive, 4)
	h.ForceDrainNext()
	if p := h.Stamp(0); p != proto.PrioLatencySensitive {
		t.Fatalf("LS stamp = %v", p)
	}
}

// Property: for any window size and request count, pairing HostPM with
// TargetPM over a device that completes in random order delivers exactly
// one application-level completion per submitted request, in submission
// order per window.
func TestHostTargetPMEndToEndProperty(t *testing.T) {
	f := func(windowRaw, nRaw uint8, seed int64) bool {
		window := int(windowRaw%16) + 1
		n := int(nRaw%120) + 1
		rng := rand.New(rand.NewSource(seed))

		host := NewHostPM(proto.PrioThroughputCritical, window)
		pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 0})

		// Host submits n requests; target classifies them; executing
		// requests accumulate in a pool that "completes" in random order.
		var executing []TaggedCID
		for i := 0; i < n; i++ {
			cid := nvme.CID(i)
			prio := host.Stamp(cid)
			d, batch := pm.OnCommand(1, cid, prio)
			switch d {
			case DispositionExecute:
				executing = append(executing, TaggedCID{1, cid})
			case DispositionDrainBatch:
				executing = append(executing, batch...)
			}
		}
		// Flush the tail window so every request eventually executes.
		if pm.QueueDepth(1) > 0 {
			host.ForceDrainNext()
			cid := nvme.CID(n)
			prio := host.Stamp(cid)
			if !prio.Draining() {
				return false
			}
			_, batch := pm.OnCommand(1, cid, prio)
			executing = append(executing, batch...)
			n++
		}
		// Random device completion order.
		rng.Shuffle(len(executing), func(i, j int) {
			executing[i], executing[j] = executing[j], executing[i]
		})
		completed := make(map[nvme.CID]int)
		for _, m := range executing {
			for _, rd := range pm.OnDeviceCompletion(nil, m.Tenant, m.CID, nvme.StatusSuccess) {
				if !rd.Send {
					continue
				}
				done, err := host.OnResponse(nil, rd.CID, rd.Coalesced)
				if err != nil {
					return false
				}
				for _, c := range done {
					completed[c]++
				}
			}
		}
		// Exactly-once completion for every request.
		if len(completed) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if completed[nvme.CID(i)] != 1 {
				return false
			}
		}
		return host.Pending() == 0 && pm.OutstandingBatchCIDs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
