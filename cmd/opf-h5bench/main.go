// Command opf-h5bench runs the mini-HDF5 particle kernels (the §V-E
// application study) against a real TCP NVMe-oPF target: each rank is one
// throughput-critical connection writing (then optionally reading back) a
// one-dimensional particle dataset in 4 KiB accesses, with per-timestep
// metadata flushes tagged latency-sensitive.
//
// Usage:
//
//	opf-target -addr :4420 -blocks 1048576 &
//	opf-h5bench -addr 127.0.0.1:4420 -ranks 4 -particles 2097152 -read
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"nvmeopf/internal/h5bench"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4420", "target address")
		ranks     = flag.Int("ranks", 2, "concurrent ranks (connections)")
		particles = flag.Uint64("particles", 1<<20, "float32 particles per rank")
		timesteps = flag.Int("timesteps", 3, "timesteps per kernel")
		window    = flag.Int("window", 16, "TC drain window")
		qd        = flag.Int("qd", 64, "in-flight accesses per rank")
		doRead    = flag.Bool("read", false, "run the read kernel after the write kernel")
		loadMS    = flag.Int("load-ms", 3, "dataset-load overhead per read timestep (ms)")
		metrics   = flag.String("metrics-addr", "", "serve host-side /metrics and /debug endpoints on this address (empty: off)")
		traceOut  = flag.String("trace-dump", "", "write a host-side flight-recorder dump (JSONL) to this file at exit")
	)
	flag.Parse()

	var tel *telemetry.Registry
	var rec *telemetry.Recorder
	if *traceOut != "" {
		rec = telemetry.NewRecorder(telemetry.RecorderConfig{Role: "host"})
	}
	if *metrics != "" {
		tel = telemetry.New()
		tel.SetRecorder(rec)
		srv, err := tel.Serve(*metrics)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr())
	}

	type rankResult struct {
		write *h5bench.Result
		read  *h5bench.Result
	}
	results := make([]rankResult, *ranks)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < *ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := tcptrans.Dial(*addr, hostqp.Config{
				Class: proto.PrioThroughputCritical, Window: *window, QueueDepth: *qd * 2, NSID: 1,
				Telemetry: tel, Recorder: rec,
			})
			if err != nil {
				log.Fatalf("rank %d: dial: %v", r, err)
			}
			defer conn.Close()
			capBlocks := conn.Capacity()
			region := capBlocks / uint64(*ranks)
			dev, err := conn.H5Device(uint64(r)*region, region)
			if err != nil {
				log.Fatalf("rank %d: %v", r, err)
			}
			cfg := h5bench.Config{
				Particles:   *particles,
				Timesteps:   *timesteps,
				AccessBytes: 4096,
				QD:          *qd,
				Clock:       func() int64 { return time.Now().UnixNano() },
				// Kernel state lives on the connection reactor; sleeps
				// hop back onto it via Defer.
				Sleep: func(d int64, fn func()) {
					time.AfterFunc(time.Duration(d), func() { conn.Defer(fn) })
				},
			}
			wdone := make(chan *h5bench.Result, 1)
			conn.Defer(func() {
				h5bench.RunWrite(dev, cfg, func(res *h5bench.Result, err error) {
					if err != nil {
						log.Fatalf("rank %d: write kernel: %v", r, err)
					}
					wdone <- res
				})
			})
			results[r].write = <-wdone
			if *doRead {
				rcfg := cfg
				rcfg.DatasetLoadNs = int64(*loadMS) * 1_000_000
				rdone := make(chan *h5bench.Result, 1)
				conn.Defer(func() {
					h5bench.RunRead(dev, rcfg, func(res *h5bench.Result, err error) {
						if err != nil {
							log.Fatalf("rank %d: read kernel: %v", r, err)
						}
						rdone <- res
					})
				})
				results[r].read = <-rdone
			}
		}()
	}
	wg.Wait()

	report := func(kind string, get func(rankResult) *h5bench.Result) {
		var bytes int64
		var lat telemetry.Hist
		for _, rr := range results {
			res := get(rr)
			if res == nil {
				return
			}
			bytes += res.Bytes
			lat.Merge(&res.OpLat)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Printf("%s: %d ranks x %d particles: %s aggregate, op p50=%s p99=%s\n",
			kind, *ranks, *particles,
			stats.FormatBytesPerSec(float64(bytes)/elapsed),
			stats.FormatNanos(lat.Quantile(0.5)), stats.FormatNanos(lat.Quantile(0.99)))
	}
	report("write", func(rr rankResult) *h5bench.Result { return rr.write })
	if *doRead {
		report("read", func(rr rankResult) *h5bench.Result { return rr.read })
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		fmt.Printf("host trace dump written to %s (analyze with opf-trace)\n", *traceOut)
	}
}
