// Package viz renders Fuzzy Prophet's two visualizations as text: the
// online-mode graph of Figure 3 (per-week expectation series) and the
// offline-mode parameter-space map of Figure 4 (which points were computed
// versus served by fingerprint mappings). The paper's GUI draws these with
// widgets; the measurable content — the series values and the mapping
// classification — is identical here.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line.
type Series struct {
	// Name labels the series in the legend (e.g. "EXPECT overload").
	Name string
	// Y holds the values, parallel to the chart's X axis.
	Y []float64
	// CIHalf, when non-nil, holds the 95% confidence half-width around each
	// Y value; the chart shades the band with ':' in cells the lines leave
	// empty. Nil (or all-zero) draws no band.
	CIHalf []float64
	// Symbol is the single character used to draw the series.
	Symbol byte
	// SecondAxis places the series on the right-hand (y2) scale, like the
	// "y2" style word in Figure 2's GRAPH clause.
	SecondAxis bool
}

// LineChart renders one or more series over a shared integer X axis.
type LineChart struct {
	Title  string
	XLabel string
	Height int // plot rows (default 16)
	Series []Series
}

// Render draws the chart. Series on the primary axis share the left scale;
// y2 series share the right scale. X positions map 1:1 to columns.
func (c *LineChart) Render() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("viz: chart has no series")
	}
	width := 0
	for _, s := range c.Series {
		if len(s.Y) > width {
			width = len(s.Y)
		}
	}
	if width == 0 {
		return "", fmt.Errorf("viz: chart has no points")
	}
	for _, s := range c.Series {
		if len(s.Y) != width {
			return "", fmt.Errorf("viz: series %q has %d points, want %d", s.Name, len(s.Y), width)
		}
	}
	height := c.Height
	if height <= 0 {
		height = 16
	}

	lo1, hi1 := rangeOf(c.Series, false)
	lo2, hi2 := rangeOf(c.Series, true)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	rowFor := func(y, lo, span float64) int {
		row := int(math.Round((y - lo) / span * float64(height-1)))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		return row
	}
	// Confidence bands first, so every series line overdraws the shading.
	for _, s := range c.Series {
		if len(s.CIHalf) == 0 {
			continue
		}
		lo, hi := lo1, hi1
		if s.SecondAxis {
			lo, hi = lo2, hi2
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for x, y := range s.Y {
			if math.IsNaN(y) || x >= len(s.CIHalf) || s.CIHalf[x] <= 0 {
				continue
			}
			for row := rowFor(y-s.CIHalf[x], lo, span); row <= rowFor(y+s.CIHalf[x], lo, span); row++ {
				if grid[height-1-row][x] == ' ' {
					grid[height-1-row][x] = ':'
				}
			}
		}
	}
	for _, s := range c.Series {
		lo, hi := lo1, hi1
		if s.SecondAxis {
			lo, hi = lo2, hi2
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for x, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			grid[height-1-rowFor(y, lo, span)][x] = s.Symbol
		}
	}

	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	leftW := 10
	for r := 0; r < height; r++ {
		switch r {
		case 0:
			sb.WriteString(padLeft(formatTick(hi1), leftW))
		case height - 1:
			sb.WriteString(padLeft(formatTick(lo1), leftW))
		default:
			sb.WriteString(strings.Repeat(" ", leftW))
		}
		sb.WriteString(" |")
		sb.Write(grid[r])
		sb.WriteString("|")
		if hasSecondAxis(c.Series) {
			switch r {
			case 0:
				sb.WriteString(" " + formatTick(hi2))
			case height - 1:
				sb.WriteString(" " + formatTick(lo2))
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", leftW))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteString("+\n")
	if c.XLabel != "" {
		sb.WriteString(strings.Repeat(" ", leftW+2))
		sb.WriteString(fmt.Sprintf("%s: 0 .. %d\n", c.XLabel, width-1))
	}
	for _, s := range c.Series {
		axis := "y1"
		if s.SecondAxis {
			axis = "y2"
		}
		sb.WriteString(fmt.Sprintf("  %c  %s (%s)\n", s.Symbol, s.Name, axis))
	}
	return sb.String(), nil
}

func hasSecondAxis(ss []Series) bool {
	for _, s := range ss {
		if s.SecondAxis {
			return true
		}
	}
	return false
}

func rangeOf(ss []Series, second bool) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	found := false
	for _, s := range ss {
		if s.SecondAxis != second {
			continue
		}
		for _, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			found = true
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if !found {
		return 0, 1
	}
	if lo == hi {
		// Flat series: widen so the line draws mid-chart.
		lo, hi = lo-1, hi+1
	}
	return lo, hi
}

func formatTick(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// CellKind classifies one parameter-space point in the Figure 4 map.
type CellKind byte

// Map cell classifications, with their rendered characters.
const (
	CellUnexplored CellKind = '.'
	CellComputed   CellKind = '#'
	CellIdentity   CellKind = '='
	CellAffine     CellKind = '~'
	CellCached     CellKind = 'o'
)

// MapGrid is a 2-D slice of the parameter space (Figure 4): rows and
// columns are the two chosen parameters' value indices; each cell records
// how the point was resolved.
type MapGrid struct {
	Title     string
	RowLabel  string
	ColLabel  string
	RowValues []string
	ColValues []string
	Cells     [][]CellKind // [row][col]
}

// NewMapGrid returns a grid initialized to CellUnexplored.
func NewMapGrid(title, rowLabel, colLabel string, rowValues, colValues []string) *MapGrid {
	cells := make([][]CellKind, len(rowValues))
	for i := range cells {
		cells[i] = make([]CellKind, len(colValues))
		for j := range cells[i] {
			cells[i][j] = CellUnexplored
		}
	}
	return &MapGrid{
		Title: title, RowLabel: rowLabel, ColLabel: colLabel,
		RowValues: rowValues, ColValues: colValues, Cells: cells,
	}
}

// Set classifies cell (row, col); out-of-range indices are ignored.
func (g *MapGrid) Set(row, col int, kind CellKind) {
	if row < 0 || row >= len(g.Cells) || col < 0 || col >= len(g.Cells[row]) {
		return
	}
	g.Cells[row][col] = kind
}

// Counts tallies the cell classifications.
func (g *MapGrid) Counts() map[CellKind]int {
	out := map[CellKind]int{}
	for _, row := range g.Cells {
		for _, c := range row {
			out[c]++
		}
	}
	return out
}

// Render draws the grid with labels and a legend.
func (g *MapGrid) Render() string {
	var sb strings.Builder
	if g.Title != "" {
		sb.WriteString(g.Title)
		sb.WriteByte('\n')
	}
	labelW := 0
	for _, rv := range g.RowValues {
		if len(rv) > labelW {
			labelW = len(rv)
		}
	}
	if len(g.RowLabel) > labelW {
		labelW = len(g.RowLabel)
	}
	sb.WriteString(padLeft(g.RowLabel+`\`+g.ColLabel, labelW+2))
	sb.WriteByte('\n')
	for i, row := range g.Cells {
		sb.WriteString(padLeft(g.RowValues[i], labelW))
		sb.WriteString(" |")
		for _, c := range row {
			sb.WriteByte(byte(c))
		}
		sb.WriteString("|\n")
	}
	counts := g.Counts()
	sb.WriteString(fmt.Sprintf("legend: #=computed(%d) ==identity-mapped(%d) ~=affine-mapped(%d) o=cached(%d) .=unexplored(%d)\n",
		counts[CellComputed], counts[CellIdentity], counts[CellAffine], counts[CellCached], counts[CellUnexplored]))
	return sb.String()
}

func padLeft(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}
