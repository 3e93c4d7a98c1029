package main

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync/atomic"

	"nvmeopf/internal/bdev"
)

const (
	blockSize    = 4096
	deviceBlocks = 65536 // 256 MiB
	fillChunk    = 256   // blocks per setup write: one bdev.Memory extent
)

// Every block the benchmark writes starts with a stamp: the block's LBA,
// a sequence number (0 for setup fills), and a tag derived from the seed,
// and ends with the complement of the LBA. Reads check it on completion;
// the write workload checks each block's last sequence number after the
// run.
func putStamp(block []byte, lba, seq, tag uint64) {
	binary.LittleEndian.PutUint64(block[0:], lba)
	binary.LittleEndian.PutUint64(block[8:], seq)
	binary.LittleEndian.PutUint64(block[16:], tag)
	binary.LittleEndian.PutUint64(block[len(block)-8:], ^lba)
}

// stampOK reports whether block carries (lba, seq, tag).
func stampOK(block []byte, lba, seq, tag uint64) bool {
	return len(block) == blockSize &&
		binary.LittleEndian.Uint64(block[0:]) == lba &&
		binary.LittleEndian.Uint64(block[8:]) == seq &&
		binary.LittleEndian.Uint64(block[16:]) == tag &&
		binary.LittleEndian.Uint64(block[len(block)-8:]) == ^lba
}

// fillDevice creates the device and stamps every block with sequence 0,
// so reads anywhere verify and writes overwrite materialized extents.
func fillDevice(tag uint64) (*bdev.Memory, error) {
	mem, err := bdev.NewMemory(blockSize, deviceBlocks)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fillChunk*blockSize)
	for lba := uint64(0); lba < deviceBlocks; lba += fillChunk {
		for i := uint64(0); i < fillChunk; i++ {
			putStamp(buf[i*blockSize:(i+1)*blockSize], lba+i, 0, tag)
		}
		if err := mem.WriteBlocks(buf, lba); err != nil {
			return nil, err
		}
	}
	return mem, nil
}

// devCall is one timed device call.
type devCall struct {
	start int64
	dur   int32
	write bool
}

// timedDevice wraps the benchmark-held bdev.Memory for the traced pass
// and times every call from outside, lock wait included. Calls land in a
// preallocated buffer; recording stops when it is full.
type timedDevice struct {
	*bdev.Memory
	calls []devCall
	n     atomic.Int64
}

func newTimedDevice(mem *bdev.Memory, capacity int) *timedDevice {
	return &timedDevice{Memory: mem, calls: make([]devCall, capacity)}
}

func (d *timedDevice) note(start int64, write bool) {
	end := nowNS()
	if i := d.n.Add(1) - 1; i < int64(len(d.calls)) {
		d.calls[i] = devCall{start: start, dur: int32(min(end-start, 1<<31-1)), write: write}
	}
}

// ReadBlocks implements bdev.Device.
func (d *timedDevice) ReadBlocks(buf []byte, lba uint64) error {
	start := nowNS()
	err := d.Memory.ReadBlocks(buf, lba)
	d.note(start, false)
	return err
}

// WriteBlocks implements bdev.Device.
func (d *timedDevice) WriteBlocks(buf []byte, lba uint64) error {
	start := nowNS()
	err := d.Memory.WriteBlocks(buf, lba)
	d.note(start, true)
	return err
}

// deviceStats summarizes the calls that started inside [from, to).
type deviceStats struct {
	reads, writes []int64
	busyFrac      float64
	meanNS        float64
}

func (d *timedDevice) stats(from, to int64) deviceStats {
	n := min(d.n.Load(), int64(len(d.calls)))
	calls := slices.Clone(d.calls[:n])
	slices.SortFunc(calls, func(a, b devCall) int { return cmp.Compare(a.start, b.start) })
	var s deviceStats
	var busy, sum, reach int64
	for _, c := range calls {
		if c.start < from || c.start >= to {
			continue
		}
		dur := int64(c.dur)
		sum += dur
		if c.write {
			s.writes = append(s.writes, dur)
		} else {
			s.reads = append(s.reads, dur)
		}
		// Union of call intervals: the device is busy while any call runs.
		end := c.start + dur
		if end > reach {
			busy += end - max(c.start, reach)
			reach = end
		}
	}
	if k := len(s.reads) + len(s.writes); k > 0 {
		s.meanNS = float64(sum) / float64(k)
	}
	if to > from {
		s.busyFrac = float64(busy) / float64(to-from)
	}
	return s
}
