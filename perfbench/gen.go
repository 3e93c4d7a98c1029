package main

import (
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
)

// ioGen makes one connection's requests from the seed: random reads of
// stamped blocks over a region, or, with ws set, sequential writes that
// stamp every block with its LBA and a fresh sequence number.
type ioGen struct {
	rng    uint64
	tag    uint64
	blocks uint32
	start  uint64 // first LBA of the region
	nIOs   uint64 // IO-sized slots in the region
	ws     *writeState
}

// writeState is the sequential writer's cursor and the last sequence
// number each IO-sized chunk was written with. It outlives a pass, so the
// post-run check covers every pass that wrote to the device.
type writeState struct {
	next    uint64
	seq     uint64
	lastSeq []uint64
}

// req is one queue-depth slot's request in flight.
type req struct {
	lba, seq uint64
	buf      []byte // write payload, reused once the write completes
}

func newIOGen(seed, tag uint64, blocks uint32, start, nBlocks uint64, ws *writeState) ioGen {
	return ioGen{rng: seed, tag: tag, blocks: blocks, start: start, nIOs: nBlocks / uint64(blocks), ws: ws}
}

// rand is splitmix64.
func (g *ioGen) rand() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next fills q with the next request and returns it as an IO.
func (g *ioGen) next(q *req, done func(hostqp.Result)) hostqp.IO {
	io := hostqp.IO{Blocks: g.blocks, Done: done}
	if g.ws == nil {
		q.lba = g.start + g.rand()%g.nIOs*uint64(g.blocks)
		io.Op, io.LBA = nvme.OpRead, q.lba
		return io
	}
	if q.buf == nil {
		q.buf = make([]byte, int(g.blocks)*blockSize)
	}
	chunk := g.ws.next
	g.ws.next = (g.ws.next + 1) % g.nIOs
	g.ws.seq++
	q.lba, q.seq = g.start+chunk*uint64(g.blocks), g.ws.seq
	for i := uint64(0); i < uint64(g.blocks); i++ {
		putStamp(q.buf[i*blockSize:(i+1)*blockSize], q.lba+i, q.seq, g.tag)
	}
	io.Op, io.LBA, io.Data = nvme.OpWrite, q.lba, q.buf
	return io
}

// check reports whether q completed correctly: a read must return every
// block's setup stamp; a successful write becomes its chunk's last stamp.
func (g *ioGen) check(q *req, r hostqp.Result) bool {
	if !r.Status.OK() {
		return false
	}
	if g.ws != nil {
		g.ws.lastSeq[(q.lba-g.start)/uint64(g.blocks)] = q.seq
		return true
	}
	if len(r.Data) != int(g.blocks)*blockSize {
		return false
	}
	for i := uint64(0); i < uint64(g.blocks); i++ {
		if !stampOK(r.Data[i*blockSize:(i+1)*blockSize], q.lba+i, 0, g.tag) {
			return false
		}
	}
	return true
}
