package core

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// The tests below pin the controller-facing PM surface added for
// internal/autotune: per-tenant valve/cap overrides and the drain hook.

func TestTenantWindowValveForcesDrain(t *testing.T) {
	pm := isolatedPM() // MaxPending 256
	pm.SetTenantWindow(1, 4)
	if pm.TenantWindow(1) != 4 {
		t.Fatalf("TenantWindow = %d, want 4", pm.TenantWindow(1))
	}
	for i := 0; i < 3; i++ {
		d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if d != DispositionQueued {
			t.Fatalf("request %d disposition = %v, want queued", i, d)
		}
	}
	d, batch := pm.OnCommand(1, 3, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 4 {
		t.Fatalf("valve drain: disposition = %v, batch = %v", d, batch)
	}
	if pm.Stats().ForcedDrains != 1 {
		t.Fatalf("ForcedDrains = %d, want 1", pm.Stats().ForcedDrains)
	}
	// Other tenants are untouched by tenant 1's override.
	for i := 0; i < 10; i++ {
		if d, _ := pm.OnCommand(2, nvme.CID(100+i), proto.PrioThroughputCritical); d != DispositionQueued {
			t.Fatalf("tenant 2 request %d disposition = %v", i, d)
		}
	}
}

func TestTenantWindowOverrideOnlyTightens(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 4})
	// An override looser than the configured valve must not loosen it.
	pm.SetTenantWindow(1, 1000)
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	d, batch := pm.OnCommand(1, 3, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 4 {
		t.Fatalf("configured valve ignored: disposition = %v, batch = %v", d, batch)
	}
}

func TestTenantWindowOverrideClears(t *testing.T) {
	pm := isolatedPM()
	pm.SetTenantWindow(1, 2)
	pm.SetTenantWindow(1, 0)
	for i := 0; i < 8; i++ {
		if d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical); d != DispositionQueued {
			t.Fatalf("request %d disposition = %v after clear, want queued", i, d)
		}
	}
	// Negative is normalized to "no override".
	pm.SetTenantWindow(1, -5)
	if pm.TenantWindow(1) != 0 {
		t.Fatalf("TenantWindow after negative set = %d, want 0", pm.TenantWindow(1))
	}
}

func TestTenantCapOverrideAdmission(t *testing.T) {
	pm := isolatedPM() // MaxPendingPerTenant 0 (off)
	pm.SetTenantCap(1, 2)
	if !pm.Admit(1, proto.PrioThroughputCritical) || !pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("first two admissions refused")
	}
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("third admission allowed past the cap override")
	}
	// Draining requests are always admitted — rejecting one would wedge
	// the parked window.
	if !pm.Admit(1, proto.PrioTCDraining) {
		t.Fatal("draining admission refused")
	}
	// Other tenants are not capped.
	if !pm.Admit(2, proto.PrioThroughputCritical) {
		t.Fatal("tenant 2 admission refused")
	}
	// Release frees the slot.
	pm.Release(1, proto.PrioThroughputCritical)
	pm.Release(1, proto.PrioTCDraining) // the drain's slot
	if !pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("admission refused after release")
	}
}

func TestTenantCapOverrideOnlyTightens(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 256, MaxPendingPerTenant: 2})
	pm.SetTenantCap(1, 50) // looser than configured: configured wins
	pm.Admit(1, proto.PrioThroughputCritical)
	pm.Admit(1, proto.PrioThroughputCritical)
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("configured per-tenant cap ignored")
	}
}

func TestResetTenantControls(t *testing.T) {
	pm := isolatedPM()
	pm.SetTenantWindow(1, 4)
	pm.SetTenantCap(1, 8)
	pm.ResetTenantControls(1)
	if pm.TenantWindow(1) != 0 || pm.TenantCap(1) != 0 {
		t.Fatalf("controls after reset = (%d, %d), want cleared",
			pm.TenantWindow(1), pm.TenantCap(1))
	}
}

func TestDrainHookFiresOnCoalescedRelease(t *testing.T) {
	pm := isolatedPM()
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	pm.OnCommand(1, 3, proto.PrioTCDraining)
	if len(got) != 0 {
		t.Fatalf("hook fired at drain start: %+v", got)
	}
	for cid := 0; cid < 4; cid++ {
		pm.OnDeviceCompletion(nil, 1, nvme.CID(cid), nvme.StatusSuccess)
	}
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	dc := got[0]
	if dc.Tenant != 1 || dc.Window != 4 || dc.Forced || dc.Queued != 0 {
		t.Fatalf("completion = %+v, want tenant 1 window 4 unforced", dc)
	}
}

func TestDrainHookForcedWindow(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 2})
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	d, batch := pm.OnCommand(1, 1, proto.PrioThroughputCritical) // valve at 2
	if d != DispositionDrainBatch {
		t.Fatalf("disposition = %v, want valve drain", d)
	}
	for _, m := range batch {
		pm.OnDeviceCompletion(nil, m.Tenant, m.CID, nvme.StatusSuccess)
	}
	if len(got) != 1 || !got[0].Forced || got[0].Window != 2 {
		t.Fatalf("completions = %+v, want one forced window of 2", got)
	}
}

func TestDrainHookWindowOrderAcrossBatches(t *testing.T) {
	pm := isolatedPM()
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	// Window A: CIDs 0,1 — window B: CIDs 2,3.
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnCommand(1, 2, proto.PrioThroughputCritical)
	pm.OnCommand(1, 3, proto.PrioTCDraining)
	// Window B finishes first: its hook must wait for A's release.
	pm.OnDeviceCompletion(nil, 1, 2, nvme.StatusSuccess)
	pm.OnDeviceCompletion(nil, 1, 3, nvme.StatusSuccess)
	if len(got) != 0 {
		t.Fatalf("hook fired out of window order: %+v", got)
	}
	pm.OnDeviceCompletion(nil, 1, 0, nvme.StatusSuccess)
	pm.OnDeviceCompletion(nil, 1, 1, nvme.StatusSuccess)
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	if got[0].Window != 2 || got[1].Window != 2 {
		t.Fatalf("windows = %+v, want both 2", got)
	}
}

func TestDrainHookReentrantControl(t *testing.T) {
	// The hook is documented to allow re-entrant Set* calls — the
	// controller actuates from inside it.
	pm := isolatedPM()
	pm.SetDrainHook(func(dc DrainCompletion) {
		pm.SetTenantWindow(dc.Tenant, 2)
		pm.SetTenantCap(dc.Tenant, 16)
	})
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnDeviceCompletion(nil, 1, 0, nvme.StatusSuccess)
	pm.OnDeviceCompletion(nil, 1, 1, nvme.StatusSuccess)
	if pm.TenantWindow(1) != 2 || pm.TenantCap(1) != 16 {
		t.Fatalf("re-entrant controls = (%d, %d), want (2, 16)",
			pm.TenantWindow(1), pm.TenantCap(1))
	}
	// And the override takes effect on the very next window.
	pm.OnCommand(1, 10, proto.PrioThroughputCritical)
	d, batch := pm.OnCommand(1, 11, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 2 {
		t.Fatalf("post-hook valve: disposition = %v, batch = %v", d, batch)
	}
}
