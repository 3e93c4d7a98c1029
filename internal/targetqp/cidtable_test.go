package targetqp

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// TestWireCIDBeyondQueueDepth: the request table is sized from the
// ICReq's queue depth, but wire CIDs are the host's to choose. A host
// that advertised depth 8 and sends CID 65535 is still served, the table
// grows only to cover the CIDs seen (never past the 65536-entry CID
// space), and a duplicate of an in-flight CID still gets IDConflict.
func TestWireCIDBeyondQueueDepth(t *testing.T) {
	be := newFakeBackend(t, false)
	tgt := opfTarget(t, be)
	var resps []*proto.CapsuleResp
	tsess, err := tgt.NewSession(func(p proto.PDU) {
		if r, ok := p.(*proto.CapsuleResp); ok {
			resps = append(resps, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	if len(tsess.reqs) != 8 {
		t.Fatalf("table sized %d, want the advertised depth 8", len(tsess.reqs))
	}
	cids := []nvme.CID{3, 65535, 8, 1000}
	for _, cid := range cids {
		cmd := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: cid, NSID: 1}, Prio: proto.PrioLatencySensitive}
		if err := tsess.HandlePDU(cmd); err != nil {
			t.Fatalf("CID %d: %v", cid, err)
		}
	}
	if len(tsess.reqs) != maxCIDs {
		t.Fatalf("table grew to %d entries, want it bounded by the %d-entry CID space", len(tsess.reqs), maxCIDs)
	}
	dup := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 65535, NSID: 1}, Prio: proto.PrioLatencySensitive}
	if err := tsess.HandlePDU(dup); err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || resps[0].Cpl.CID != 65535 || resps[0].Cpl.Status != nvme.StatusIDConflict {
		t.Fatalf("duplicate of in-flight CID 65535: responses %+v, want one IDConflict", resps)
	}
	be.releaseAll()
	if len(resps) != 1+len(cids) || tsess.live != 0 {
		t.Fatalf("%d responses, %d live entries after completing every command; want %d and 0",
			len(resps), tsess.live, 1+len(cids))
	}
	for i, cid := range cids {
		if r := resps[1+i]; r.Cpl.CID != cid || !r.Cpl.Status.OK() {
			t.Fatalf("response %d = CID %d status %v, want CID %d success", i, r.Cpl.CID, r.Cpl.Status, cid)
		}
	}
}

// pinBackend is an allocation-free backend: it parks each command's bound
// completion callback until release, and serves reads from one buffer.
type pinBackend struct {
	ns   nvme.Namespace
	buf  []byte
	jobs []pinJob
}

type pinJob struct {
	cmd  nvme.Command
	done func(nvme.Completion, []byte)
}

func (b *pinBackend) Namespace() nvme.Namespace { return b.ns }

func (b *pinBackend) Submit(cmd nvme.Command, _ []byte, _ bool, done func(nvme.Completion, []byte)) {
	b.jobs = append(b.jobs, pinJob{cmd, done})
}

func (b *pinBackend) release() {
	for _, j := range b.jobs {
		var data []byte
		if j.cmd.Opcode == nvme.OpRead {
			data = b.buf[:b.ns.Bytes(j.cmd.Blocks())]
		}
		j.done(nvme.Completion{CID: j.cmd.CID}, data)
	}
	b.jobs = b.jobs[:0]
}

// TestCommandCompletionZeroAlloc pins the target half of an IO at zero
// allocations: command arrival, device submission, device completion and
// the response (plus read data), with the transport recycling every
// outbound struct as the simulator's delivery and the TCP writer do.
func TestCommandCompletionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	be := &pinBackend{ns: nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 20}, buf: make([]byte, 4096)}
	clock := int64(0)
	tgt, err := NewTarget(Config{Mode: ModeOPF, MaxPending: 4096, Clock: func() int64 { clock++; return clock }}, be)
	if err != nil {
		t.Fatal(err)
	}
	var resps, data int
	tsess, err := tgt.NewSession(func(p proto.PDU) {
		switch v := p.(type) {
		case *proto.CapsuleResp:
			if v.Cpl.Status.OK() {
				resps++
			}
		case *proto.C2HData:
			data++
		}
		proto.Recycle(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	read := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}, Prio: proto.PrioLatencySensitive}
	write := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpWrite, CID: 2, NSID: 1}, Prio: proto.PrioNormal, Data: make([]byte, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tsess.HandlePDU(read); err != nil {
			t.Fatal(err)
		}
		if err := tsess.HandlePDU(write); err != nil {
			t.Fatal(err)
		}
		be.release()
	})
	if resps != 2*201 || data != 201 {
		t.Fatalf("%d responses and %d data PDUs, want %d and %d", resps, data, 2*201, 201)
	}
	if allocs != 0 {
		t.Fatalf("command -> completion -> response: %v allocs, want 0", allocs)
	}
}
