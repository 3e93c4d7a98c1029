// Package stats provides throughput counters, number formatting and
// table rendering used by the benchmark harness and the experiment
// runners. Latency histograms live in internal/telemetry (Hist).
package stats

import (
	"fmt"
	"strings"
)

// Counter accumulates an operation count and byte count over a known
// duration, and derives IOPS and bandwidth. The zero value is ready to use.
// Counter is not synchronized: confine each instance to one goroutine (the
// simulator's event loop, a connection's reactor) and Merge results after
// the run. For counters fed from several goroutines use AtomicCounter.
type Counter struct {
	Ops   int64
	Bytes int64
}

// Add records n operations moving total bytes.
func (c *Counter) Add(ops, bytes int64) {
	c.Ops += ops
	c.Bytes += bytes
}

// Merge adds o into c.
func (c *Counter) Merge(o Counter) {
	c.Ops += o.Ops
	c.Bytes += o.Bytes
}

// IOPS returns operations per second over a duration of durNanos.
func (c Counter) IOPS(durNanos int64) float64 {
	if durNanos <= 0 {
		return 0
	}
	return float64(c.Ops) / (float64(durNanos) / 1e9)
}

// Bandwidth returns bytes per second over a duration of durNanos.
func (c Counter) Bandwidth(durNanos int64) float64 {
	if durNanos <= 0 {
		return 0
	}
	return float64(c.Bytes) / (float64(durNanos) / 1e9)
}

// Table renders aligned fixed-width rows for terminal reports. Rows are
// added as string slices; columns are sized to the widest cell.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row of formatted cells, one format-arg pair per cell is
// not enforced; callers pass pre-formatted strings via fmt.Sprintf when
// needed. This helper formats every value with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatNanos renders a nanosecond count in a human unit.
func FormatNanos(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// FormatBytesPerSec renders a byte rate.
func FormatBytesPerSec(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2fGB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2fMB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2fKB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", bps)
	}
}

// Bar renders a crude ASCII bar of width proportional to v/max, used by the
// experiment CLI to sketch figures in the terminal.
func Bar(v, max float64, width int) string {
	if max <= 0 || v <= 0 || width <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
