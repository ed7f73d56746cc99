package experiments

import (
	"fmt"
	"strings"
)

// Result is one regenerated table or figure.
type Result interface {
	// ID is the paper artifact identifier ("table1", "fig4", ...).
	ID() string
	// Title is the human-readable caption.
	Title() string
	// Render returns the printable reproduction.
	Render() string
}

// table builds aligned text tables for experiment output.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	all := append([][]string{t.header}, t.rows...)
	for _, row := range all {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range all {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 2 * (len(widths) - 1)
			for _, w := range widths {
				total += w
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// sparkline renders a numeric series as a unicode bar chart, used for the
// Figure 1 time series in terminal output.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// markIf returns marker when cond is true, else "".
func markIf(cond bool, marker string) string {
	if cond {
		return marker
	}
	return ""
}
