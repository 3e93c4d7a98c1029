// Package h5bench reimplements the h5bench particle I/O kernels the paper
// uses for its application-level study (§V-E): each rank writes (or reads
// back) a one-dimensional particle array stored as a single dataset in a
// mini-hdf5 file, in fixed-size accesses (4 KiB, mirroring perf), with a
// bounded number of operations in flight and a metadata flush per
// timestep. Read kernels model h5bench's dataset-loading overhead between
// timesteps, which the paper calls out as the reason read bandwidth trails
// write ("h5bench read must perform dataset loading overheads between read
// requests (h5bench timesteps)").
package h5bench

import (
	"errors"
	"fmt"

	"nvmeopf/internal/hdf5"
	"nvmeopf/internal/telemetry"
)

// Mode selects the kernel.
type Mode int

// Modes.
const (
	Write Mode = iota
	Read
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Config describes one rank's kernel.
type Config struct {
	Mode Mode
	// Particles per rank (the paper writes 8M particles per benchmark
	// run; scaled-down runs keep the access pattern).
	Particles uint64
	// Timesteps of the kernel (each ends in a metadata update).
	Timesteps int
	// AccessBytes per I/O (4096, mirroring the paper's perf-matched
	// configuration).
	AccessBytes int
	// QD bounds in-flight accesses per rank.
	QD int
	// DatasetLoadNs is the per-timestep dataset-load overhead applied to
	// read kernels before accesses begin.
	DatasetLoadNs int64
	// Clock provides timestamps (the simulator's virtual clock).
	Clock func() int64
	// Sleep schedules fn after d nanoseconds (engine Schedule in
	// simulation; immediate call for synchronous devices with d folded
	// into nothing). Required when DatasetLoadNs > 0.
	Sleep func(d int64, fn func())
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Particles == 0 {
		return errors.New("h5bench: zero particles")
	}
	if c.Timesteps < 1 {
		return errors.New("h5bench: no timesteps")
	}
	if c.AccessBytes < 4 || c.AccessBytes%4 != 0 {
		return fmt.Errorf("h5bench: access size %d not a float32 multiple", c.AccessBytes)
	}
	if c.QD < 1 {
		return errors.New("h5bench: zero queue depth")
	}
	if c.Clock == nil {
		return errors.New("h5bench: nil clock")
	}
	if c.DatasetLoadNs > 0 && c.Sleep == nil {
		return errors.New("h5bench: DatasetLoadNs without Sleep")
	}
	return nil
}

// Result summarizes one rank's kernel run.
type Result struct {
	Mode    Mode
	Bytes   int64
	Ops     int64
	Errors  int64
	StartNs int64
	EndNs   int64
	OpLat   telemetry.Hist
}

// Bandwidth returns bytes/sec over the kernel's duration (including
// metadata updates and dataset-load overheads, as h5bench reports).
func (r *Result) Bandwidth() float64 {
	d := r.EndNs - r.StartNs
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes) / (float64(d) / 1e9)
}

// datasetPath is the particle array the kernels touch.
const datasetPath = "/particles/x"

// kernel drives one rank.
type kernel struct {
	cfg  Config
	dev  hdf5.Device
	file *hdf5.File
	ds   *hdf5.Dataset
	res  Result
	done func(*Result, error)

	elemsPerOp uint64
	step       int
	nextElem   uint64
	inflight   int
	failed     bool
	buf        []byte
}

// RunWrite creates the particle file on dev and runs the write kernel,
// invoking done with the result.
func RunWrite(dev hdf5.Device, cfg Config, done func(*Result, error)) {
	cfg.Mode = Write
	run(dev, cfg, done)
}

// RunRead opens the existing particle file on dev and runs the read
// kernel. Populate the file first (e.g. via RunWrite).
func RunRead(dev hdf5.Device, cfg Config, done func(*Result, error)) {
	cfg.Mode = Read
	run(dev, cfg, done)
}

func run(dev hdf5.Device, cfg Config, done func(*Result, error)) {
	if err := cfg.Validate(); err != nil {
		done(nil, err)
		return
	}
	k := &kernel{
		cfg:        cfg,
		dev:        dev,
		done:       done,
		elemsPerOp: uint64(cfg.AccessBytes / 4),
	}
	k.res.Mode = cfg.Mode
	k.res.StartNs = cfg.Clock()
	if cfg.Mode == Write {
		k.buf = make([]byte, cfg.AccessBytes)
		for i := range k.buf {
			k.buf[i] = byte(i)
		}
		hdf5.Create(dev, func(f *hdf5.File, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			k.file = f
			f.CreateGroup("/particles", func(err error) {
				if err != nil {
					done(nil, err)
					return
				}
				f.CreateDataset(datasetPath, hdf5.Float32, cfg.Particles, func(ds *hdf5.Dataset, err error) {
					if err != nil {
						done(nil, err)
						return
					}
					k.ds = ds
					k.beginTimestep()
				})
			})
		})
		return
	}
	hdf5.Open(dev, func(f *hdf5.File, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		k.file = f
		ds, err := f.OpenDataset(datasetPath)
		if err != nil {
			done(nil, err)
			return
		}
		if ds.Len() < cfg.Particles {
			done(nil, fmt.Errorf("h5bench: dataset has %d particles, need %d", ds.Len(), cfg.Particles))
			return
		}
		k.ds = ds
		k.beginTimestep()
	})
}

// beginTimestep applies the dataset-load overhead (reads) then streams the
// timestep's accesses.
func (k *kernel) beginTimestep() {
	k.nextElem = 0
	start := func() {
		for k.inflight < k.cfg.QD {
			if !k.issueOne() {
				break
			}
		}
	}
	if k.cfg.Mode == Read && k.cfg.DatasetLoadNs > 0 {
		k.cfg.Sleep(k.cfg.DatasetLoadNs, start)
		return
	}
	start()
}

// issueOne submits the next access of the current timestep; false when the
// timestep has no more to issue.
func (k *kernel) issueOne() bool {
	if k.failed || k.nextElem >= k.cfg.Particles {
		return false
	}
	elems := k.elemsPerOp
	if rest := k.cfg.Particles - k.nextElem; rest < elems {
		elems = rest
	}
	off := k.nextElem
	k.nextElem += elems
	k.inflight++
	issuedAt := k.cfg.Clock()
	finish := func(err error) {
		k.inflight--
		k.res.Ops++
		if err != nil {
			k.res.Errors++
			k.fail(err)
			return
		}
		k.res.Bytes += int64(elems * 4)
		k.res.OpLat.Record(k.cfg.Clock() - issuedAt)
		if k.nextElem < k.cfg.Particles {
			k.issueOne()
		} else if k.inflight == 0 {
			k.endTimestep()
		}
	}
	if k.cfg.Mode == Write {
		data := k.buf[:elems*4]
		k.ds.Write(off, data, finish)
	} else {
		k.ds.Read(off, elems, func(_ []byte, err error) { finish(err) })
	}
	return true
}

// endTimestep flushes metadata and advances.
func (k *kernel) endTimestep() {
	k.step++
	flush := func(err error) {
		if err != nil {
			k.fail(err)
			return
		}
		if k.step >= k.cfg.Timesteps {
			k.res.EndNs = k.cfg.Clock()
			k.done(&k.res, nil)
			return
		}
		k.beginTimestep()
	}
	if k.cfg.Mode == Write {
		k.file.Close(flush)
	} else {
		flush(nil)
	}
}

// fail terminates the kernel once.
func (k *kernel) fail(err error) {
	if k.failed {
		return
	}
	k.failed = true
	k.res.EndNs = k.cfg.Clock()
	k.done(&k.res, err)
}
