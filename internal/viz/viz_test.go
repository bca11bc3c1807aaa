package viz

import (
	"strings"
	"testing"
)

func TestLineChartBasic(t *testing.T) {
	c := &LineChart{
		Title:  "demo",
		XLabel: "week",
		Height: 8,
		Series: []Series{
			{Name: "EXPECT overload", Y: []float64{0, 0.2, 0.5, 0.9, 1}, Symbol: '*'},
			{Name: "EXPECT capacity", Y: []float64{50000, 50000, 58000, 58000, 66000}, Symbol: 'c', SecondAxis: true},
		},
	}
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "EXPECT overload (y1)") || !strings.Contains(out, "EXPECT capacity (y2)") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "week: 0 .. 4") {
		t.Errorf("x label missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "c") {
		t.Error("series symbols missing")
	}
	// Monotone series: '*' in the last column must be on a higher row than
	// in the first column.
	lines := strings.Split(out, "\n")
	firstRow, lastRow := -1, -1
	for i, line := range lines {
		if idx := strings.IndexByte(line, '|'); idx >= 0 && strings.HasSuffix(line, "|") {
			body := line[idx+1 : len(line)-1]
			if len(body) == 5 {
				if body[0] == '*' {
					firstRow = i
				}
				if body[4] == '*' {
					lastRow = i
				}
			}
		}
	}
	// The y2 tick breaks HasSuffix on the first/last plot lines; just check
	// we found the low point below the high point when both were seen.
	if firstRow >= 0 && lastRow >= 0 && lastRow >= firstRow {
		t.Errorf("rising series should climb: first at line %d, last at line %d\n%s", firstRow, lastRow, out)
	}
}

func TestLineChartErrors(t *testing.T) {
	if _, err := (&LineChart{}).Render(); err == nil {
		t.Error("empty chart should error")
	}
	c := &LineChart{Series: []Series{{Name: "a", Y: []float64{1, 2}, Symbol: 'a'}, {Name: "b", Y: []float64{1}, Symbol: 'b'}}}
	if _, err := c.Render(); err == nil {
		t.Error("ragged series should error")
	}
	c = &LineChart{Series: []Series{{Name: "a", Y: nil, Symbol: 'a'}}}
	if _, err := c.Render(); err == nil {
		t.Error("no points should error")
	}
}

func TestLineChartFlatSeries(t *testing.T) {
	c := &LineChart{Series: []Series{{Name: "flat", Y: []float64{5, 5, 5}, Symbol: 'f'}}, Height: 5}
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "flat (y1)") != 1 {
		t.Errorf("flat series legend:\n%s", out)
	}
	if !strings.Contains(out, "fff") {
		t.Errorf("flat series not drawn:\n%s", out)
	}
}

func TestMapGrid(t *testing.T) {
	g := NewMapGrid("Fig4", "p1", "p2", []string{"0", "4", "8"}, []string{"0", "4"})
	g.Set(0, 0, CellComputed)
	g.Set(0, 1, CellIdentity)
	g.Set(1, 0, CellAffine)
	g.Set(2, 1, CellCached)
	g.Set(99, 99, CellComputed) // ignored
	out := g.Render()
	if !strings.Contains(out, "Fig4") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "|#=|") {
		t.Errorf("row 0 wrong:\n%s", out)
	}
	if !strings.Contains(out, "|~.|") {
		t.Errorf("row 1 wrong:\n%s", out)
	}
	if !strings.Contains(out, "|.o|") {
		t.Errorf("row 2 wrong:\n%s", out)
	}
	counts := g.Counts()
	if counts[CellComputed] != 1 || counts[CellIdentity] != 1 ||
		counts[CellAffine] != 1 || counts[CellCached] != 1 || counts[CellUnexplored] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("legend missing")
	}
}
