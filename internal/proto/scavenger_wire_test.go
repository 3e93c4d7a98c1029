package proto

// Wire pins for the scavenger (best-effort) class: the third reserved SQE
// bit, zero extra wire bytes, and — critically — the legacy decode: a peer
// built before the class existed masks the priority byte with 0x3 and must
// read a scavenger command as PrioNormal (a safe downgrade to FIFO), never
// as LS or TC.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmeopf/internal/nvme"
)

func TestScavengerWireByte(t *testing.T) {
	in := &CapsuleCmd{
		Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 3, NSID: 1, SLBA: 8, NLB: 0},
		Prio:   PrioScavenger,
		Tenant: 300,
		Data:   []byte("0123456789abcdef"),
	}
	buf := Marshal(in)
	// Bit 2 alone: the two legacy priority bits stay clear so a legacy
	// mask-0x3 decode reads PrioNormal.
	if got := buf[chSize+sqePrioOffset]; got != 4 {
		t.Fatalf("scavenger priority byte = %#x, want 0x4", got)
	}
	if got := Priority(buf[chSize+sqePrioOffset] & 0x3); got != PrioNormal {
		t.Fatalf("legacy decode of scavenger byte = %v, want PrioNormal", got)
	}
	out, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	cc := out.(*CapsuleCmd)
	if cc.Prio != PrioScavenger || cc.Tenant != 300 {
		t.Fatalf("round trip = prio %v tenant %d", cc.Prio, cc.Tenant)
	}
}

func TestScavengerAddsNoWireBytes(t *testing.T) {
	cmd := nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, SLBA: 0, NLB: 7}
	plain := &CapsuleCmd{Cmd: cmd, Prio: PrioNormal}
	scav := &CapsuleCmd{Cmd: cmd, Prio: PrioScavenger, Tenant: 65535}
	if len(Marshal(plain)) != len(Marshal(scav)) {
		t.Fatal("scavenger bit changed the wire size")
	}
}

func TestScavengerICReqRoundTrip(t *testing.T) {
	in := &ICReq{PFV: 1, QueueDepth: 64, Prio: PrioScavenger, NSID: 1}
	buf := Marshal(in)
	if got := buf[chSize+4]; got != 4 {
		t.Fatalf("ICReq scavenger class byte = %#x, want 0x4", got)
	}
	out, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*ICReq).Prio; got != PrioScavenger {
		t.Fatalf("ICReq class round-tripped to %v", got)
	}
}

// TestLegacyPriorityDecodeUnchanged pins that the four pre-scavenger wire
// values still decode exactly as before the bit existed, and that every
// priority round-trips through encode/decode.
func TestLegacyPriorityDecodeUnchanged(t *testing.T) {
	legacy := map[uint8]Priority{
		0: PrioNormal,
		1: PrioLatencySensitive,
		2: PrioThroughputCritical,
		3: PrioTCDraining,
	}
	for b, want := range legacy {
		if got := decodePriority(b); got != want {
			t.Fatalf("decodePriority(%d) = %v, want %v", b, got, want)
		}
		if got := encodePriority(want); got != b {
			t.Fatalf("encodePriority(%v) = %d, want %d", want, got, b)
		}
	}
	for _, p := range []Priority{PrioNormal, PrioLatencySensitive, PrioThroughputCritical, PrioTCDraining, PrioScavenger} {
		if got := decodePriority(encodePriority(p)); got != p {
			t.Fatalf("priority %v round-tripped to %v", p, got)
		}
	}
	// Defensive decode: a peer that (incorrectly) sets the scavenger bit
	// alongside legacy bits still lands on scavenger — the bit always
	// means best-effort, so garbage low bits can never escalate a request
	// into the LS bypass.
	for b := uint8(4); b <= 7; b++ {
		if got := decodePriority(b); got != PrioScavenger {
			t.Fatalf("decodePriority(%d) = %v, want PrioScavenger", b, got)
		}
	}
}

// TestScavengerPooledDecodeKeepsBit pins the pooled (zero-alloc) reader's
// decode against the plain one for every data-bearing PDU. The pooled
// path once carried its own CapsuleCmd decode with a mask-0x3 priority —
// the legacy downgrade meant for *peers* — silently demoting every
// scavenger command to the FIFO path on the real TCP server while the
// simulator (plain decode) kept the class. Both readers must yield the
// exact input on well-formed PDUs and both must reject a short body or a
// length field that disagrees with the payload.
func TestScavengerPooledDecodeKeepsBit(t *testing.T) {
	scav := &CapsuleCmd{
		Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 9, NSID: 1, SLBA: 4, NLB: 0},
		Prio:   PrioScavenger,
		Tenant: 300,
		Data:   bytes.Repeat([]byte{0xE7}, 4096),
	}
	noData := &CapsuleCmd{Cmd: scav.Cmd, Prio: PrioScavenger, Tenant: 65535}
	payload := bytes.Repeat([]byte{0x3C}, 600)
	c2h := &C2HData{CCCID: 7, Offset: 4096, Data: payload}
	h2c := &H2CData{CCCID: 8, Offset: 512, Data: payload}
	// short keeps the common header of p but cuts its body to n bytes.
	short := func(p PDU, n int) []byte {
		w := Marshal(p)[:chSize+n]
		binary.LittleEndian.PutUint32(w[4:], uint32(len(w)))
		return w
	}
	// lying bumps the length field of a C2HData/H2CData header.
	lying := func(p PDU) []byte {
		w := Marshal(p)
		binary.LittleEndian.PutUint32(w[chSize+8:], uint32(len(payload)+1))
		return w
	}
	cases := []struct {
		name string
		in   PDU // nil: the wire must be rejected
		wire []byte
	}{
		{"capsule-cmd-scavenger", scav, Marshal(scav)},
		{"capsule-cmd-no-data", noData, Marshal(noData)},
		{"c2h-data", c2h, Marshal(c2h)},
		{"h2c-data", h2c, Marshal(h2c)},
		{"capsule-cmd-short", nil, short(scav, nvme.CommandSize-1)},
		{"c2h-data-short", nil, short(c2h, c2hPSHSize-1)},
		{"h2c-data-short", nil, short(h2c, c2hPSHSize-1)},
		{"c2h-data-length-mismatch", nil, lying(c2h)},
		{"h2c-data-length-mismatch", nil, lying(h2c)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, pooled := range []bool{false, true} {
				got, err := NewReader(bytes.NewReader(tc.wire), pooled).Next()
				if tc.in == nil {
					if err == nil {
						t.Fatalf("pooled=%v: decoded %v from a malformed PDU", pooled, got.PDUType())
					}
					continue
				}
				if err != nil {
					t.Fatalf("pooled=%v: %v", pooled, err)
				}
				if got.PDUType() != tc.in.PDUType() || !bytes.Equal(Marshal(got), tc.wire) {
					t.Fatalf("pooled=%v: decoded %+v, want %+v", pooled, got, tc.in)
				}
				if cc, ok := got.(*CapsuleCmd); ok && (cc.Prio != PrioScavenger || cc.Tenant != tc.in.(*CapsuleCmd).Tenant) {
					t.Fatalf("pooled=%v: prio %v tenant %d, want scavenger/%d", pooled, cc.Prio, cc.Tenant, tc.in.(*CapsuleCmd).Tenant)
				}
				if pooled {
					ReleaseInbound(got)
				}
			}
		})
	}
}
