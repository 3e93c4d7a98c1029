package core

import (
	"runtime"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// completionAllocs runs setup and then complete, runs times, and returns
// the heap allocations per run made inside complete alone.
func completionAllocs(runs int, setup, complete func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	complete() // warm-up: map and slice growth
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		complete()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total) / float64(runs)
}

// TestOnDeviceCompletionZeroAlloc pins OnDeviceCompletion at zero
// allocations on its three per-IO paths: an LS completion, a suppressed
// window member, and the member whose completion releases the window's
// coalesced response. The decisions land in the caller's array.
func TestOnDeviceCompletionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const window = 4
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 4096})
	var buf [8]RespDecision
	var got []RespDecision

	lsSetup := func() {
		pm.Admit(1, proto.PrioLatencySensitive)
		pm.OnCommand(1, 7, proto.PrioLatencySensitive)
		pm.Release(1, proto.PrioLatencySensitive)
	}
	ls := completionAllocs(100, lsSetup, func() { got = pm.OnDeviceCompletion(buf[:0], 1, 7, nvme.StatusSuccess) })
	if len(got) != 1 || !got[0].Send || got[0].CID != 7 || got[0].Coalesced {
		t.Fatalf("LS decisions %+v, want one individual response for CID 7", got)
	}

	// Each window: CIDs 0..window-2 park, window-1 drains. Completing the
	// first window-1 members is the suppressed path; the last releases.
	windowSetup := func() {
		for cid := nvme.CID(0); cid < window; cid++ {
			prio := proto.PrioThroughputCritical
			if cid == window-1 {
				prio = proto.PrioTCDraining
			}
			pm.Admit(2, prio)
			pm.OnCommand(2, cid, prio)
			pm.Release(2, prio)
		}
	}
	open := false // a window's last member is still outstanding
	suppressed := completionAllocs(100, func() {
		if open {
			pm.OnDeviceCompletion(buf[:0], 2, window-1, nvme.StatusSuccess)
		}
		windowSetup()
		open = true
	}, func() {
		for cid := nvme.CID(0); cid < window-1; cid++ {
			got = pm.OnDeviceCompletion(buf[:0], 2, cid, nvme.StatusSuccess)
		}
	})
	if len(got) != 1 || got[0].Send {
		t.Fatalf("suppressed member decisions %+v, want one Send=false", got)
	}
	pm.OnDeviceCompletion(buf[:0], 2, window-1, nvme.StatusSuccess)
	release := completionAllocs(100, func() {
		windowSetup()
		for cid := nvme.CID(0); cid < window-1; cid++ {
			pm.OnDeviceCompletion(buf[:0], 2, cid, nvme.StatusSuccess)
		}
	}, func() { got = pm.OnDeviceCompletion(buf[:0], 2, window-1, nvme.StatusSuccess) })
	if len(got) != 1 || !got[0].Send || !got[0].Coalesced || got[0].CID != window-1 {
		t.Fatalf("release decisions %+v, want one coalesced response for CID %d", got, window-1)
	}
	if ls != 0 || suppressed != 0 || release != 0 {
		t.Fatalf("allocs per completion path: LS %v, suppressed window %v, coalesced release %v; want 0",
			ls, suppressed, release)
	}
	if n := pm.OutstandingBatchCIDs(); n != 0 {
		t.Fatalf("%d batch members still outstanding", n)
	}
}
