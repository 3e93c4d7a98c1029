package experiments

import (
	"fmt"

	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// Ratio is one latency-sensitive : throughput-critical tenant mix.
type Ratio struct{ LS, TC int }

// String implements fmt.Stringer.
func (r Ratio) String() string { return fmt.Sprintf("%d:%d", r.LS, r.TC) }

// fig7Ratios are the seven ratios of §V-B.
var fig7Ratios = []Ratio{{1, 1}, {1, 2}, {2, 2}, {3, 2}, {1, 3}, {2, 3}, {1, 4}}

// fig7Mixes maps sub-figures to workloads: (a,d) read, (b,e) mixed, (c,f)
// write.
var fig7Mixes = []workload.Mix{workload.ReadOnly, workload.Mixed5050, workload.WriteOnly}

// Fig7 regenerates Fig. 7: aggregate TC throughput (a–c) and LS tail
// latency (d–f) for seven LS:TC ratios on 10/25/100 Gbps, for read,
// mixed 50:50, and write workloads. Every initiator runs on its own node,
// all against a single target node.
func Fig7(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig7",
		Title: "Multi-tenant concurrency: throughput and 99.99% tail latency vs LS:TC ratio",
		Table: newFigTable("workload", "gbps", "ratio", "design", "tc_MB/s", "ls_tail_us", "ls_mean_us", "ls_samples"),

		PlotSpec: PlotSpec{ValueCol: "tc_MB/s", LabelCols: []string{"workload", "gbps", "ratio", "design"}},
	}
	for _, mix := range fig7Mixes {
		for _, gbps := range []float64{10, 25, 100} {
			for _, ratio := range fig7Ratios {
				for _, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
					r, err := Run(cfg, Case{
						Gbps: gbps, Mode: mode, Mix: mix,
						FanIn: true, LSPerNode: ratio.LS, TCPerNode: ratio.TC,
					})
					if err != nil {
						return nil, err
					}
					rep.Table.AddRow(mix.String(), f0(gbps), ratio.String(), designName(mode),
						mbps(r.TCBps), usec(r.LSTail), usec(r.LSMeanLat), fmt.Sprint(r.LSSamples))
				}
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: read@10G peak +194.5% (1:4); read@25G +91.3%; read@100G +49.5%; write@100G +32.6% (0-4 TC); oPF tail latency flat across ratios",
		"tail percentile degrades with LS sample count (see telemetry.Hist.Tail)")
	return rep, nil
}

// Fig7Summary condenses Fig. 7 into the paper's headline comparisons:
// throughput ratio oPF/SPDK at 1:4 per speed, and mean tail-latency
// reduction across all ratios and speeds.
func Fig7Summary(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig7sum",
		Title: "Fig. 7 headline ratios (oPF vs SPDK)",
		Table: newFigTable("workload", "gbps", "tput_ratio@1:4", "tail_reduction_avg_%"),
	}
	for _, mix := range fig7Mixes {
		for _, gbps := range []float64{10, 25, 100} {
			base14, err := Run(cfg, Case{Gbps: gbps, Mode: targetqp.ModeBaseline, Mix: mix, FanIn: true, LSPerNode: 1, TCPerNode: 4})
			if err != nil {
				return nil, err
			}
			opf14, err := Run(cfg, Case{Gbps: gbps, Mode: targetqp.ModeOPF, Mix: mix, FanIn: true, LSPerNode: 1, TCPerNode: 4})
			if err != nil {
				return nil, err
			}
			var reductions []float64
			for _, ratio := range fig7Ratios {
				b, err := Run(cfg, Case{Gbps: gbps, Mode: targetqp.ModeBaseline, Mix: mix, FanIn: true, LSPerNode: ratio.LS, TCPerNode: ratio.TC})
				if err != nil {
					return nil, err
				}
				o, err := Run(cfg, Case{Gbps: gbps, Mode: targetqp.ModeOPF, Mix: mix, FanIn: true, LSPerNode: ratio.LS, TCPerNode: ratio.TC})
				if err != nil {
					return nil, err
				}
				if b.LSTail > 0 {
					reductions = append(reductions, 100*(1-float64(o.LSTail)/float64(b.LSTail)))
				}
			}
			rep.Table.AddRow(mix.String(), f0(gbps),
				fmt.Sprintf("%.2f", ratioOf(opf14.TCBps, base14.TCBps)),
				fmt.Sprintf("%.1f", mean(reductions)))
		}
	}
	return rep, nil
}

// designName maps a mode to its display label.
func designName(m targetqp.Mode) string {
	if m == targetqp.ModeOPF {
		return "nvme-opf"
	}
	return "spdk"
}

// ratioOf guards division by zero.
func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean of a slice (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// newFigTable builds a table with the given header.
func newFigTable(cols ...string) *stats.Table { return stats.NewTable(cols...) }
