package report

import (
	"fmt"
	"strings"

	"unclean/internal/ipset"
)

// Inventory is an ordered collection of reports, rendered the way the
// paper's Tables 1 and 2 present them.
type Inventory struct {
	Title   string
	Reports []*Report
}

// Add appends a report and returns the inventory for chaining.
func (inv *Inventory) Add(r *Report) *Inventory {
	inv.Reports = append(inv.Reports, r)
	return inv
}

// Get returns the report with the given tag, or nil.
func (inv *Inventory) Get(tag string) *Report {
	for _, r := range inv.Reports {
		if r.Tag == tag {
			return r
		}
	}
	return nil
}

// MustGet returns the report with the given tag and panics if absent;
// experiment code treats a missing report as a programming error.
func (inv *Inventory) MustGet(tag string) *Report {
	r := inv.Get(tag)
	if r == nil {
		panic(fmt.Sprintf("report: no report tagged %q in inventory %q", tag, inv.Title))
	}
	return r
}

// Addrs returns the union of every report's membership — the flat
// address view for when the per-report structure does not matter (the
// serve benchmark draws its query pool from it).
func (inv *Inventory) Addrs() ipset.Set {
	b := ipset.NewBuilder(0)
	for _, r := range inv.Reports {
		b.AddSet(r.Addrs)
	}
	return b.Build()
}

// Table renders the inventory as an aligned text table with the paper's
// columns: Tag, Type, Class, Valid Dates, Size, Reporting method.
func (inv *Inventory) Table() string {
	header := []string{"Tag", "Type", "Class", "Valid Dates", "Size", "Reporting method"}
	rows := [][]string{header}
	for _, r := range inv.Reports {
		rows = append(rows, []string{
			r.Tag, r.Type.String(), r.Class.String(), r.Validity(),
			groupDigits(r.Size()), r.Method,
		})
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if inv.Title != "" {
		fmt.Fprintf(&b, "%s\n", inv.Title)
	}
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w
			}
			b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// groupDigits formats n with comma thousands separators, matching the
// paper's table style (e.g. 621,861).
func groupDigits(n int) string {
	s := fmt.Sprintf("%d", n)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
