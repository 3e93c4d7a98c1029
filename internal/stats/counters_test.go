package stats

import (
	"strings"
	"testing"
)

func TestCounterRates(t *testing.T) {
	var c Counter
	c.Add(1000, 4096*1000)
	sec := int64(1e9)
	if got := c.IOPS(sec); got != 1000 {
		t.Errorf("IOPS = %v, want 1000", got)
	}
	if got := c.Bandwidth(sec); got != 4096*1000 {
		t.Errorf("Bandwidth = %v", got)
	}
	if c.IOPS(0) != 0 || c.Bandwidth(-1) != 0 {
		t.Error("nonpositive duration should give 0 rate")
	}
}

func TestCounterMerge(t *testing.T) {
	a := Counter{Ops: 1, Bytes: 10}
	b := Counter{Ops: 2, Bytes: 20}
	a.Merge(b)
	if a.Ops != 3 || a.Bytes != 30 {
		t.Fatalf("merge = %+v", a)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, sep, 2 rows), got %d:\n%s", len(lines), out)
	}
	// Column alignment: "value" column should start at the same offset in
	// header and rows.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", `he said "hi"`)
	out := tb.CSV()
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != "#####" {
		t.Errorf("Bar(5,10,10) = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Errorf("overflow bar should clamp")
	}
	if Bar(-1, 10, 10) != "" || Bar(1, 0, 10) != "" {
		t.Errorf("degenerate bars should be empty")
	}
}

func TestFormatNanos(t *testing.T) {
	cases := map[int64]string{
		5:             "5ns",
		1500:          "1.50us",
		2_500_000:     "2.50ms",
		3_000_000_000: "3.00s",
	}
	for in, want := range cases {
		if got := FormatNanos(in); got != want {
			t.Errorf("FormatNanos(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytesPerSec(t *testing.T) {
	cases := map[float64]string{
		10:     "10B/s",
		1500:   "1.50KB/s",
		2.5e6:  "2.50MB/s",
		3.25e9: "3.25GB/s",
		12.5e9: "12.50GB/s",
	}
	for in, want := range cases {
		if got := FormatBytesPerSec(in); got != want {
			t.Errorf("FormatBytesPerSec(%v) = %q, want %q", in, got, want)
		}
	}
}
