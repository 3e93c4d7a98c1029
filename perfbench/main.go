// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every IO it issued, and prints one JSON result
// line last: the end-to-end metrics of an untraced run, or with --trace 1
// the per-layer metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; every workload reports
// each of them on an untraced run.
var endToEnd = []metricDef{
	{"tc_iops", "1/s"},
	{"tc_mbps", "MB/s"},
	{"tc_p50_us", "us"},
	{"tc_p99_us", "us"},
	{"ls_p50_us", "us"},
	{"ls_p99_us", "us"},
	{"ls_p999_us", "us"},
	{"cpu_us_per_io", "us"},
	{"host_ios_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what a traced run reports. A metric of a layer or stage
// the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for c := 0; c < numClasses; c++ {
		for s := 0; s < numStages; s++ {
			name := "stage." + className[c] + "." + stageName[s]
			defs = append(defs, metricDef{name + ".p50_us", "us"}, metricDef{name + ".p99_us", "us"})
		}
	}
	return append(defs, []metricDef{
		{"bdev.read.p50_us", "us"},
		{"bdev.read.p99_us", "us"},
		{"bdev.write.p50_us", "us"},
		{"bdev.write.p99_us", "us"},
		{"bdev.busy_frac", "fraction"},
		{"bdev.sansio_ns_per_io", "ns"},
		{"tcptrans.exec_wait_mean_us", "us"},
		{"tcptrans.data_pdus_per_io", "count"},
		{"core.resp_pdus_per_io", "count"},
		{"core.coalesced_frac", "fraction"},
		{"core.ls_bypassed_frac", "fraction"},
		{"core.forced_drains", "count"},
		{"core.busy_rejections", "count"},
		{"core.scav_aged_drain_frac", "fraction"},
		{"sc_iops", "1/s"},
		{"socket.read_syscalls_per_io", "count"},
		{"socket.write_syscalls_per_io", "count"},
		{"socket.wire_bytes_per_io", "bytes"},
		{"socket.payload_frac", "fraction"},
		{"runtime.allocs_per_io", "count"},
		{"runtime.alloc_bytes_per_io", "bytes"},
		{"runtime.gc_cpu_frac", "fraction"},
		{"runtime.sched_wait_p99_us", "us"},
		{"cpu.user_us_per_io", "us"},
		{"cpu.sys_us_per_io", "us"},
		{"proto.encode_ns_per_io", "ns"},
		{"proto.decode_ns_per_io", "ns"},
		{"proto.allocs_per_io", "count"},
		{"hostqp.submit_ns_per_io", "ns"},
		{"hostqp.handle_ns_per_io", "ns"},
		{"hostqp.allocs_per_io", "count"},
		{"targetqp.handle_ns_per_io", "ns"},
		{"targetqp.complete_ns_per_io", "ns"},
		{"targetqp.allocs_per_io", "count"},
		{"layers.sum_ns_per_io", "ns"},
		{"layers.residual_frac", "fraction"},
		{"trace.overhead_frac", "fraction"},
		{"trace.stage_sum_gap_frac", "fraction"},
		{"trace.matched_frac", "fraction"},
	}...)
}()

var workloads = []string{"tcp-small-read", "tcp-large-write", "sim-mix"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(name string, seed uint64, seconds int, traced bool) (*outcome, error) {
	switch name {
	case "tcp-small-read":
		return runTCP(tcpSmallRead, seed, seconds, traced)
	case "tcp-large-write":
		return runTCP(tcpLargeWrite, seed, seconds, traced)
	case "sim-mix":
		return runSim(seed, seconds, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{out.metrics[d.name], d.unit}
	}
	for _, p := range out.problems {
		fmt.Println("problem:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
