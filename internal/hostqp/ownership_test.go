package hostqp

import (
	"errors"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// TestSubmitRejectsOversizedNLB: NLB is a 0's-based 16-bit field, so
// nvme.MaxBlocks is the largest command. A larger count used to truncate
// (65537 blocks went out as a 1-block command with the full payload
// attached); it must be rejected before a CID is taken. The session does
// not check a write payload's length, and without geometry it sizes no
// read buffer, so the cases run without multi-MiB buffers.
func TestSubmitRejectsOversizedNLB(t *testing.T) {
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		for _, tc := range []struct {
			blocks uint32
			ok     bool
		}{{nvme.MaxBlocks, true}, {nvme.MaxBlocks + 1, false}, {2 * nvme.MaxBlocks, false}} {
			h := newHarness(t, tcConfig(1, 4))
			h.connect(t, 1)
			io := IO{Op: op, Blocks: tc.blocks, Done: func(Result) {}}
			if op == nvme.OpWrite {
				io.Data = make([]byte, 512)
			}
			err := h.sess.Submit(io)
			if tc.ok {
				if err != nil {
					t.Fatalf("%v of %d blocks rejected: %v", op, tc.blocks, err)
				}
				if nlb := h.lastCmd(t).Cmd.NLB; nlb != 0xFFFF {
					t.Fatalf("%v of %d blocks encoded NLB %#x, want 0xffff", op, tc.blocks, nlb)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%v of %d blocks accepted", op, tc.blocks)
			}
			if h.sess.Outstanding() != 0 || len(h.out) != 0 {
				t.Fatalf("%v of %d blocks: rejection left %d outstanding, %d PDUs sent",
					op, tc.blocks, h.sess.Outstanding(), len(h.out))
			}
		}
	}
}

// TestOutOfRangeWireCIDIsProtocolError: the request table is sized to the
// queue depth, so a CapsuleResp or C2HData naming a CID at or beyond it
// must be a typed *ProtocolError, never an index panic.
func TestOutOfRangeWireCIDIsProtocolError(t *testing.T) {
	for _, cid := range []nvme.CID{4, 5, 0xFFFF} {
		h := newHarness(t, tcConfig(2, 4))
		h.connectGeom(t, 1, 512)
		if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Done: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []proto.PDU{
			&proto.C2HData{CCCID: cid, Data: make([]byte, 8)},
			&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}},
			&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}, Coalesced: true},
		} {
			var pe *ProtocolError
			if err := h.sess.HandlePDU(p); !errors.As(err, &pe) {
				t.Fatalf("%v for CID %d surfaced as %T (%v), want *ProtocolError", p.PDUType(), cid, err, err)
			}
		}
		if h.sess.Outstanding() != 1 {
			t.Fatalf("hostile CID %d disturbed the live request: outstanding %d", cid, h.sess.Outstanding())
		}
	}
}

// TestDoneResubmitReusingCIDSeesOwnResult: a Done callback that submits
// at once is handed the CID it just freed, and so the same request
// record. The completing request's Result must be built before that
// reuse, and the new request must start from a clean record.
func TestDoneResubmitReusingCIDSeesOwnResult(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	h.connectGeom(t, 1, 512)
	first := make([]byte, 512)
	second := make([]byte, 512)
	var got []Result
	var resubmitErr error
	var done func(Result)
	done = func(r Result) {
		got = append(got, r)
		if len(got) == 1 {
			resubmitErr = h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Data: second, Done: done})
		}
	}
	if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Data: first, Done: done}); err != nil {
		t.Fatal(err)
	}
	cid := h.lastCmd(t).Cmd.CID
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Data: bytes47(512)}); err != nil {
		t.Fatal(err)
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
	if resubmitErr != nil {
		t.Fatalf("resubmit from Done: %v", resubmitErr)
	}
	if reused := h.lastCmd(t).Cmd.CID; reused != cid {
		t.Fatalf("resubmit took CID %d, want the freed CID %d", reused, cid)
	}
	if len(got) != 1 || !got[0].Status.OK() || &got[0].Data[0] != &first[0] || got[0].Data[0] != 47 {
		t.Fatalf("first Result = %+v, want success carrying the first buffer", got)
	}
	// The reused record starts clean: the second read needs its own full
	// coverage, not the first read's spans.
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Status != nvme.StatusDataXferError || &got[1].Data[0] != &second[0] {
		t.Fatalf("second Result = %+v, want StatusDataXferError on the second buffer", got[1])
	}
}

// TestSuppliedReadBufferLength: a caller's read buffer must be exactly
// Blocks × block size; anything else is rejected before a CID is taken.
// A geometry-unknown session cannot check it, so it refuses supplied
// buffers altogether.
func TestSuppliedReadBufferLength(t *testing.T) {
	h := newHarness(t, tcConfig(1, 4))
	h.connectGeom(t, 1, 512)
	for _, n := range []int{0, 511, 1023, 1025} {
		err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 2, Data: make([]byte, n), Done: func(Result) {}})
		if err == nil {
			t.Fatalf("%d-byte buffer for a 1024-byte read accepted", n)
		}
		if h.sess.Outstanding() != 0 || len(h.out) != 0 {
			t.Fatalf("%d-byte buffer: rejection consumed a CID or sent a PDU", n)
		}
	}

	u := newHarness(t, tcConfig(1, 4))
	u.connect(t, 1) // no geometry
	if err := u.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Data: make([]byte, 512), Done: func(Result) {}}); err == nil {
		t.Fatal("supplied buffer accepted without namespace geometry")
	}
	if u.sess.Outstanding() != 0 {
		t.Fatal("geometry rejection consumed a CID")
	}
}

// TestSuppliedReadBufferRoundTrip: the data lands in the caller's buffer
// (which the transport hook is told about), and Result.Data is that very
// slice.
func TestSuppliedReadBufferRoundTrip(t *testing.T) {
	var announced []byte
	cfg := tcConfig(1, 4)
	cfg.OnReadBuffer = func(_ nvme.CID, b []byte) { announced = b }
	h := newHarness(t, cfg)
	h.connectGeom(t, 1, 512)
	buf := make([]byte, 1024)
	var got Result
	if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 2, Data: buf, Done: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	cmd := h.lastCmd(t)
	if cmd.Data != nil {
		t.Fatal("read capsule carries the destination buffer as payload")
	}
	if len(announced) != len(buf) || &announced[0] != &buf[0] {
		t.Fatal("OnReadBuffer was not handed the caller's buffer")
	}
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cmd.Cmd.CID, Data: bytes47(1024)}); err != nil {
		t.Fatal(err)
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cmd.Cmd.CID}}); err != nil {
		t.Fatal(err)
	}
	if !got.Status.OK() || len(got.Data) != 1024 || &got.Data[0] != &buf[0] || buf[1023] != 47 {
		t.Fatalf("Result = %+v, want success returning the caller's filled buffer", got.Status)
	}
}

// TestFailAllWithholdsSuppliedBuffer: FailAll runs when the transport
// died, possibly with its reader still landing bytes in a read's buffer,
// so the failed completion must not hand the buffer back.
func TestFailAllWithholdsSuppliedBuffer(t *testing.T) {
	h := newHarness(t, tcConfig(1, 4))
	h.connectGeom(t, 1, 512)
	var got []Result
	for i := 0; i < 2; i++ {
		err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Data: make([]byte, 512), Done: func(r Result) { got = append(got, r) }})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := h.sess.FailAll(nvme.StatusAborted); n != 2 {
		t.Fatalf("FailAll failed %d requests, want 2", n)
	}
	for i, r := range got {
		if r.Status != nvme.StatusAborted || r.Data != nil {
			t.Fatalf("FailAll completion %d: status %v, %d data bytes; want aborted with nil Data", i, r.Status, len(r.Data))
		}
	}
	if h.sess.Outstanding() != 0 || h.sess.liveRecords() != 0 {
		t.Fatalf("after FailAll: outstanding %d, live records %d", h.sess.Outstanding(), h.sess.liveRecords())
	}
}

// liveRecords counts the request table's live entries.
func (s *Session) liveRecords() int {
	n := 0
	for _, r := range s.reqs {
		if r != nil && r.live {
			n++
		}
	}
	return n
}

// pinHarness drives a connected session whose send hook keeps only the
// last PDU and the clock is a bare counter, so the measured loop
// allocates only what the session itself does.
type pinHarness struct {
	sess *Session
	last proto.PDU
	now  int64
}

func newPinHarness(t *testing.T, cfg Config) *pinHarness {
	t.Helper()
	h := &pinHarness{}
	sess, err := New(cfg, func(p proto.PDU) { h.last = p }, func() int64 { h.now++; return h.now })
	if err != nil {
		t.Fatal(err)
	}
	h.sess = sess
	sess.Start()
	if err := sess.HandlePDU(&proto.ICResp{PFV: ProtocolVersion, MaxDataLen: 1 << 20, BlockSize: 4096, Capacity: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	return h
}

// sentCID returns the CID of the capsule just sent and recycles it, as a
// transport does once the capsule is on the wire.
func (h *pinHarness) sentCID() nvme.CID {
	c := h.last.(*proto.CapsuleCmd)
	cid := c.Cmd.CID
	proto.Recycle(c)
	return cid
}

// TestRoundTripZeroAlloc pins the host half of an IO at zero
// allocations: a read into a caller-supplied buffer (submit, data,
// response) and a window of TC writes replayed by one coalesced response.
func TestRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	t.Run("read-supplied-buffer", func(t *testing.T) {
		h := newPinHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
		buf := make([]byte, 4096)
		data := &proto.C2HData{Data: make([]byte, 4096)}
		resp := &proto.CapsuleResp{}
		var failed bool
		done := func(r Result) { failed = failed || !r.Status.OK() || len(r.Data) != 4096 }
		allocs := testing.AllocsPerRun(200, func() {
			if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Data: buf, Done: done}); err != nil {
				t.Fatal(err)
			}
			cid := h.sentCID()
			data.CCCID, resp.Cpl.CID = cid, cid
			if err := h.sess.HandlePDU(data); err != nil {
				t.Fatal(err)
			}
			if err := h.sess.HandlePDU(resp); err != nil {
				t.Fatal(err)
			}
		})
		if failed {
			t.Fatal("a read failed")
		}
		if allocs != 0 {
			t.Fatalf("read round trip: %v allocs, want 0", allocs)
		}
	})
	t.Run("tc-write-window", func(t *testing.T) {
		const window = 8
		h := newPinHarness(t, tcConfig(window, 32))
		payload := make([]byte, 4096)
		resp := &proto.CapsuleResp{Coalesced: true}
		completed := 0
		done := func(r Result) {
			if r.Status.OK() {
				completed++
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			var cid nvme.CID
			for i := 0; i < window; i++ {
				if err := h.sess.Submit(IO{Op: nvme.OpWrite, Blocks: 1, Data: payload, Done: done}); err != nil {
					t.Fatal(err)
				}
				cid = h.sentCID()
			}
			resp.Cpl.CID = cid
			if err := h.sess.HandlePDU(resp); err != nil {
				t.Fatal(err)
			}
		})
		if completed != 201*window {
			t.Fatalf("%d writes completed, want %d", completed, 201*window)
		}
		if allocs != 0 {
			t.Fatalf("write window round trip: %v allocs, want 0", allocs)
		}
	})
}
