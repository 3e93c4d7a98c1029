package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// sim-mix: the deterministic simulator on the 100 Gbps profile with 4 LS
// + 8 TC + 4 scavenger tenants, each on its own initiator node, fanning
// in to one target node.
const (
	simLS, simTC, simSC = 4, 8, 4
	simWarmNS           = 5_000_000
	simRunNS            = 400_000_000
	simAgingNS          = 2_000_000
)

// simRun is one built cluster and its runners, by class.
type simRun struct {
	cl      *simcluster.Cluster
	tn      *simcluster.TargetNode
	runners [numClasses][]*workload.Runner
	lat     [numClasses][]int64 // exact in-window latencies (ns) when exact
	exact   bool
}

// buildSim builds the cluster. With buf set, every host session and the
// target trace into it on the virtual clock; otherwise a completion-only
// hook on each host session collects exact per-IO latencies into arrays
// of capacity latCap (a repetition of a seeded run knows its exact counts,
// so it allocates them once).
func buildSim(seed uint64, buf *evBuf, latCap [numClasses]int) (*simRun, error) {
	opts := simcluster.Options{
		Profile: simcluster.ProfileCL(), Mode: targetqp.ModeOPF, Seed: seed,
		ScavengerAging: simAgingNS,
	}
	sr := &simRun{exact: buf == nil}
	for c := range sr.lat {
		sr.lat[c] = make([]int64, 0, latCap[c])
	}
	if buf != nil {
		opts.Trace = buf.record
		buf.clock = func() int64 { return sr.cl.Eng.Now() }
	}
	cl := simcluster.New(opts)
	sr.cl = cl
	tn, err := cl.NewTargetNode("tgt", false)
	if err != nil {
		return nil, err
	}
	sr.tn = tn
	stop := int64(simWarmNS + simRunNS)
	tcWindow := core.OptimalWindow(core.WorkloadMixed, 100, simTC, 128)
	region := tn.SSD.Namespace().Capacity / (simLS + simTC + simSC)
	idx := 0
	add := func(cls int, hcfg hostqp.Config, mix workload.Mix) error {
		node := cl.NewInitiatorNode(fmt.Sprintf("%s%d", className[cls], idx), tn)
		if buf != nil {
			hcfg.Trace = buf.record
		} else {
			hcfg.Trace = func(e telemetry.Event) {
				if e.Stage == telemetry.StageComplete {
					if now := cl.Eng.Now(); now >= simWarmNS && now <= stop {
						sr.lat[cls] = append(sr.lat[cls], e.Aux)
					}
				}
			}
		}
		ini, err := node.Connect(hcfg)
		if err != nil {
			return err
		}
		r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
			Mix: mix, Pattern: workload.Random, Blocks: 1, QueueDepth: hcfg.QueueDepth,
			RegionStart: uint64(idx) * region, RegionBlocks: region,
			WarmupUntil: simWarmNS, StopAt: stop,
			Seed: seed*1000 + uint64(idx) + 1,
		})
		if err != nil {
			return err
		}
		r.Start()
		sr.runners[cls] = append(sr.runners[cls], r)
		idx++
		return nil
	}
	for i := 0; i < simLS; i++ {
		if err := add(clsLS, hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, workload.ReadOnly); err != nil {
			return nil, err
		}
	}
	for i := 0; i < simTC; i++ {
		if err := add(clsTC, hostqp.Config{Class: proto.PrioThroughputCritical, Window: tcWindow, QueueDepth: 128, NSID: 1}, workload.Mixed5050); err != nil {
			return nil, err
		}
	}
	for i := 0; i < simSC; i++ {
		if err := add(clsSC, hostqp.Config{Class: proto.PrioScavenger, Window: 1, QueueDepth: 32, NSID: 1}, workload.WriteOnly); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// completions counts every request the runners completed, warm-up and
// tail included: the work the host did.
func (sr *simRun) completions() int64 {
	var n int64
	for c := range sr.runners {
		for _, r := range sr.runners[c] {
			n += r.Result().Completed
		}
	}
	return n
}

// digest hashes every simulated statistic of a finished run: the same
// seed must give the same digest.
func (sr *simRun) digest() uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(sr.cl.Eng.Now())
	for c := range sr.runners {
		for _, r := range sr.runners[c] {
			res := r.Result()
			put(res.Submitted, res.Completed, res.Errors, res.Busy, res.Recorded.Ops, res.Recorded.Bytes,
				res.Latency.Count(), res.Latency.Sum(), res.Latency.Min(), res.Latency.Max())
		}
		put(sr.lat[c]...)
	}
	ts, pm := sr.tn.Target.Stats(), sr.tn.Target.PMStats()
	put(ts.CmdPDUs, ts.RespPDUs, ts.DataPDUs, ts.Reads, ts.Writes, ts.Errors,
		pm.LSBypassed, pm.TCQueued, pm.Drains, pm.ForcedDrains, pm.RespsSent, pm.RespsSuppressed,
		pm.ScavQueued, pm.ScavDrains, pm.ScavAgedDrains)
	return h.Sum64()
}

// check returns the run's failed-IO count and any problems: protocol
// errors, errored requests, or exact latencies disagreeing with the
// runners' own recorded counts.
func (sr *simRun) check() (failed int64, problems []string) {
	if err := sr.cl.CheckHealthy(); err != nil {
		problems = append(problems, err.Error())
		failed += int64(len(sr.cl.Errors()))
	}
	for c := range sr.runners {
		var ops int64
		for _, r := range sr.runners[c] {
			failed += r.Result().Errors
			ops += r.Result().Recorded.Ops
		}
		if sr.exact && int64(len(sr.lat[c])) != ops {
			problems = append(problems, fmt.Sprintf("%s: %d latency samples for %d recorded completions", className[c], len(sr.lat[c]), ops))
		}
	}
	return failed, problems
}

// recorded sums one class's in-window completions and bytes.
func (sr *simRun) recorded(cls int) (ops, bytes int64) {
	for _, r := range sr.runners[cls] {
		ops += r.Result().Recorded.Ops
		bytes += r.Result().Recorded.Bytes
	}
	return ops, bytes
}

func (sr *simRun) attempted() int64 {
	var n int64
	for c := range sr.runners {
		for _, r := range sr.runners[c] {
			n += r.Result().Submitted
		}
	}
	return n
}

// simMinReps and simMaxReps bound the repetitions of the measured pass. At
// least two run, so every invocation checks same-seed determinism.
const simMinReps, simMaxReps = 2, 60

func runSim(seed uint64, seconds int, traced bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	budget := time.Duration(seconds) * time.Second
	if traced {
		budget /= 2 // the rest goes to the traced repetition and its reduction
	}
	var setups, speeds []float64
	var first *simRun
	var firstDigest uint64
	var latCap [numClasses]int
	var rss float64
	var cost windowCost
	var ios int64
	start := time.Now()
	for rep := 0; rep < simMaxReps && (rep < simMinReps || time.Since(start) < budget); rep++ {
		runtime.GC()
		t := time.Now()
		sr, err := buildSim(seed, nil, latCap)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		s0, err := takeSnapshot()
		if err != nil {
			return nil, err
		}
		sr.cl.Run()
		s1, err := takeSnapshot()
		if err != nil {
			return nil, err
		}
		c := costBetween(s0, s1)
		speeds = append(speeds, float64(sr.completions())/c.seconds)
		cost = addCost(cost, c)
		ios += sr.completions()
		failed, problems := sr.check()
		out.attempted += sr.attempted()
		out.failed += failed
		out.problems = append(out.problems, problems...)
		if d := sr.digest(); first == nil {
			// Peak memory is that of one simulation, as a figure run needs
			// it; later repetitions exist only to measure and check.
			rss = peakRSSMB()
			first, firstDigest = sr, d
			for c := range latCap {
				latCap[c] = len(sr.lat[c])
			}
		} else if d != firstDigest {
			out.problems = append(out.problems, fmt.Sprintf("repetition %d: simulated statistics differ from repetition 0 for the same seed", rep))
		}
	}
	simSeconds := float64(simRunNS) / 1e9
	if !traced {
		tcOps, tcBytes := first.recorded(clsTC)
		ls, tc := summarize(first.lat[clsLS]), summarize(first.lat[clsTC])
		m["tc_iops"] = float64(tcOps) / simSeconds
		m["tc_mbps"] = float64(tcBytes) / simSeconds / 1e6
		m["tc_p50_us"], m["tc_p99_us"] = tc.p50, tc.p99
		m["ls_p50_us"], m["ls_p99_us"], m["ls_p999_us"] = ls.p50, ls.p99, ls.p999
		m["cpu_us_per_io"] = cost.cpu.Seconds() * 1e6 / float64(ios)
		m["host_ios_per_s"] = median(speeds)
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = rss
		fmt.Printf("sim-mix: %d repetitions; LS %d samples (tail p%g = %.1f us), TC %d samples, SC %d samples\n",
			len(speeds), ls.n, ls.tailQ*100, ls.tail, tc.n, len(first.lat[clsSC]))
		return out, nil
	}

	// Per-layer: counters over the measured repetitions, then one traced
	// repetition for the stage breakdown in simulated time.
	fios := float64(ios)
	m["runtime.allocs_per_io"] = float64(cost.allocs) / fios
	m["runtime.alloc_bytes_per_io"] = float64(cost.allocBytes) / fios
	m["runtime.gc_cpu_frac"] = cost.gcCPU / cost.cpu.Seconds()
	m["runtime.sched_wait_p99_us"] = cost.schedP99 * 1e6
	m["cpu.user_us_per_io"] = cost.user.Seconds() * 1e6 / fios
	m["cpu.sys_us_per_io"] = cost.sys.Seconds() * 1e6 / fios
	ts := first.tn.Target.Stats()
	addPMMetrics(m, first.tn.Target.PMStats(), ts.CmdPDUs, float64(ts.Reads+ts.Writes))
	scOps, _ := first.recorded(clsSC)
	m["sc_iops"] = float64(scOps) / simSeconds

	buf := newEvBuf(int(float64(first.attempted())*8)+1<<16, nil)
	runtime.GC()
	sr, err := buildSim(seed, buf, [numClasses]int{})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sr.cl.Run()
	tracedSpeed := float64(sr.completions()) / time.Since(t).Seconds()
	m["trace.overhead_frac"] = 1 - tracedSpeed/median(speeds)
	failed, problems := sr.check()
	out.attempted += sr.attempted()
	out.failed += failed
	out.problems = append(out.problems, problems...)
	to := int64(simWarmNS + simRunNS)
	if buf.full.Load() {
		to = cutoffOf(buf)
		out.problems = append(out.problems, "trace buffer filled before the simulated window ended")
	}
	st := reduceStages([][]event{buf.events()}, false, simWarmNS, to)
	addStageMetrics(m, st)
	gap := 0.0
	for c := 0; c < numClasses; c++ {
		stages, _ := st.means(c)
		sum := 0.0
		for _, v := range stages {
			sum += v
		}
		var rec int64
		var lsum int64
		for _, r := range first.runners[c] {
			rec += r.Result().Latency.Count()
			lsum += r.Result().Latency.Sum()
		}
		if rec > 0 {
			mean := float64(lsum) / float64(rec)
			g := math.Abs(sum-mean) / mean
			gap = max(gap, g)
			if g > 0.05 {
				out.problems = append(out.problems, fmt.Sprintf(
					"%s stage means sum to %.1f us but mean latency is %.1f us", className[c], sum/1e3, mean/1e3))
			}
		}
	}
	m["trace.stage_sum_gap_frac"] = gap
	if n := first.attempted(); n > 0 {
		var rec int64
		for c := range first.runners {
			o, _ := first.recorded(c)
			rec += o
		}
		matched := len(st.latency[clsLS]) + len(st.latency[clsTC]) + len(st.latency[clsSC])
		m["trace.matched_frac"] = float64(matched) / float64(rec)
	}
	if st.negative > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d traced requests have a negative stage", st.negative))
	}
	return out, nil
}

func addCost(a, b windowCost) windowCost {
	a.seconds += b.seconds
	a.cpu += b.cpu
	a.user += b.user
	a.sys += b.sys
	a.allocs += b.allocs
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.schedP99 = max(a.schedP99, b.schedP99)
	return a
}
