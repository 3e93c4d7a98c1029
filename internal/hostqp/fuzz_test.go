package hostqp

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// FuzzHostInbound drives a connected session with a byte-coded script of
// submissions (reads with and without a caller buffer, writes) and
// arbitrary inbound CapsuleResp and C2HData PDUs: any CID, offset, length
// and status, coalesced or not. Whatever the target sends, the session
// must not panic, every error must be a typed *ProtocolError or one the
// session raises itself, each Done must run at most once, and the CID
// allocator, the request table and the script's own count of requests
// still waiting for Done must agree after every step.
func FuzzHostInbound(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x11, 0x12, 0x30, 0, 0, 0, 0, 8, 0x20, 0, 0, 1, 0})
	f.Add([]byte{1, 0x10, 0x10, 0x11, 0x11, 0x22, 0, 3, 1, 0})
	f.Add([]byte{2, 0x10, 0x31, 0xff, 0xff, 0, 0, 0, 0xff, 64, 0x21, 0xff, 0xff, 0, 0})
	f.Add([]byte{3, 0x11, 0x33, 0, 1, 0, 0, 0x10, 0, 64, 0x33, 0, 1, 0, 0, 0, 0, 64, 0x20, 0, 1, 1, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		const qd, bs = 8, 512
		cfg := Config{Class: proto.PrioThroughputCritical, Window: 1 + int(script[0]>>2)%4, QueueDepth: qd, NSID: 1}
		if script[0]&1 == 1 {
			cfg.Class = proto.PrioLatencySensitive
		}
		sess, err := New(cfg, func(p proto.PDU) {}, func() int64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		sess.Start()
		icr := &proto.ICResp{PFV: ProtocolVersion, MaxDataLen: 4 * bs}
		if script[0]&2 == 2 {
			icr.BlockSize, icr.Capacity = bs, 1<<20 // geometry known
		}
		if err := sess.HandlePDU(icr); err != nil {
			t.Fatal(err)
		}

		calls := map[int]int{} // request id -> Done calls
		waiting := 0           // submitted requests whose Done has not run
		next := 0
		submit := func(io IO) {
			id := next
			next++
			io.Done = func(Result) {
				calls[id]++
				if calls[id] > 1 {
					t.Fatalf("request %d completed twice", id)
				}
				waiting--
			}
			if sess.Submit(io) == nil {
				waiting++
			}
		}
		rd := script[1:]
		u8 := func() byte {
			if len(rd) == 0 {
				return 0
			}
			b := rd[0]
			rd = rd[1:]
			return b
		}
		u16 := func() uint16 { return uint16(u8()) | uint16(u8())<<8 }
		for len(rd) > 0 {
			op := u8()
			var in proto.PDU
			switch op >> 4 & 3 {
			case 0: // read, session-allocated buffer
				submit(IO{Op: nvme.OpRead, Blocks: 1 + uint32(op&1)})
			case 1: // read into a caller buffer (rejected without geometry), or a write
				blocks := 1 + uint32(op&1)
				if op&2 == 0 {
					submit(IO{Op: nvme.OpRead, Blocks: blocks, Data: make([]byte, int(blocks)*bs)})
				} else {
					submit(IO{Op: nvme.OpWrite, Blocks: blocks, Data: make([]byte, int(blocks)*bs)})
				}
			case 2:
				in = &proto.CapsuleResp{
					Cpl:       nvme.Completion{CID: u16(), Status: nvme.Status(u8() % 8)},
					Coalesced: op&1 == 1,
				}
			case 3:
				d := &proto.C2HData{CCCID: u16()}
				var off [4]byte
				if op&1 == 1 {
					off[0], off[1], off[2], off[3] = u8(), u8(), u8(), u8()
				} else {
					off[1] = u8() & 7 // a small, often valid offset
				}
				d.Offset = binary.LittleEndian.Uint32(off[:])
				d.Data = make([]byte, int(u8())*8)
				in = d
			}
			if in != nil {
				if err := sess.HandlePDU(in); err != nil {
					var pe *ProtocolError
					if !errors.As(err, &pe) && !strings.HasPrefix(err.Error(), "hostqp: ") && !strings.HasPrefix(err.Error(), "core: ") {
						t.Fatalf("%v: untyped error %T: %v", in.PDUType(), err, err)
					}
					// A transport resets the connection on any inbound error.
					sess.FailAll(nvme.StatusAborted)
				}
			}
			if live := sess.liveRecords(); sess.Outstanding() != live || live != waiting {
				t.Fatalf("outstanding %d, live records %d, requests waiting for Done %d", sess.Outstanding(), live, waiting)
			}
			if !sess.Connected() {
				return
			}
		}
	})
}
