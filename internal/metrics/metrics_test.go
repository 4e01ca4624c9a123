package metrics

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "alpha") ||
		!strings.Contains(out, "2.50") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("M", "a", "b")
	tb.AddRow("x", "y")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| x | y |") ||
		!strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatalf("ragged row lost: %s", out)
	}
}

func TestFormatters(t *testing.T) {
	if FmtBytes(3<<20) != "3.0 MiB" {
		t.Fatalf("FmtBytes: %s", FmtBytes(3<<20))
	}
	if FmtPct(0.375) != "37.5%" {
		t.Fatalf("FmtPct: %s", FmtPct(0.375))
	}
}
