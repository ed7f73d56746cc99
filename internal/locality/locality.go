// Package locality measures the source-locality structure of traffic
// crossing the observed network, following McHugh & Gates' observation
// that normal traffic has a limited, stable audience. The paper leans on
// this twice: the control report approximates the active Internet
// because the observed network's audience is broad, and predictive
// blocking is cheap because "less than 2% of the total IP addresses
// available in those /24s communicated with the observed network" (§6.2).
package locality

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// DayStats summarizes one day of source arrivals.
type DayStats struct {
	// Date is the UTC day.
	Date time.Time
	// Sources is the number of distinct sources seen this day.
	Sources int
	// New counts sources never seen on an earlier day of the analysis.
	New int
	// Returning is Sources - New.
	Returning int
}

// Analysis is the locality profile of a traffic log.
type Analysis struct {
	// Days holds per-day arrival statistics in date order.
	Days []DayStats
	// WorkingSet is every source seen over the whole window.
	WorkingSet ipset.Set
	// PayloadOnly records whether only payload-bearing flows counted.
	PayloadOnly bool
}

const secondsPerDay = 24 * 60 * 60

// utcDay returns the number of the UTC day t falls in, counting from
// 1970-01-01 and rounding down on either side of it.
func utcDay(t netflow.Time) int64 {
	const day = int64(secondsPerDay * time.Second)
	d := int64(t) / day
	if int64(t)%day < 0 {
		d--
	}
	return d
}

// Analyze profiles the sources in a flow log, bucketing by the UTC day
// of each flow's start. With payloadOnly set, only payload-bearing flows
// count — the "meaningful activity" view.
func Analyze(records []netflow.Record, payloadOnly bool) *Analysis {
	type dayKey int64
	perDay := make(map[dayKey]map[netaddr.Addr]struct{})
	for i := range records {
		r := &records[i]
		if payloadOnly && !r.PayloadBearing() {
			continue
		}
		k := dayKey(utcDay(r.First))
		m := perDay[k]
		if m == nil {
			m = make(map[netaddr.Addr]struct{})
			perDay[k] = m
		}
		m[r.SrcAddr] = struct{}{}
	}
	keys := make([]dayKey, 0, len(perDay))
	for k := range perDay {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	a := &Analysis{PayloadOnly: payloadOnly}
	seen := make(map[netaddr.Addr]struct{})
	working := ipset.NewBuilder(0)
	for _, k := range keys {
		day := DayStats{Date: time.Unix(int64(k)*secondsPerDay, 0).UTC()}
		for src := range perDay[k] {
			day.Sources++
			if _, old := seen[src]; old {
				day.Returning++
			} else {
				day.New++
				seen[src] = struct{}{}
				working.Add(src)
			}
		}
		a.Days = append(a.Days, day)
	}
	a.WorkingSet = working.Build()
	return a
}

// ReturningFraction returns the aggregate fraction of daily source
// sightings that were returning sources (excluding the first day, whose
// sources are definitionally new).
func (a *Analysis) ReturningFraction() float64 {
	var returning, total int
	for i, d := range a.Days {
		if i == 0 {
			continue
		}
		returning += d.Returning
		total += d.Sources
	}
	if total == 0 {
		return 0
	}
	return float64(returning) / float64(total)
}

// Audiences returns the distribution of distinct sources per destination
// — the per-service audience sizes whose boundedness locality predicts.
func Audiences(records []netflow.Record, payloadOnly bool) stats.Boxplot {
	perDst := make(map[netaddr.Addr]map[netaddr.Addr]struct{})
	for i := range records {
		r := &records[i]
		if payloadOnly && !r.PayloadBearing() {
			continue
		}
		m := perDst[r.DstAddr]
		if m == nil {
			m = make(map[netaddr.Addr]struct{})
			perDst[r.DstAddr] = m
		}
		m[r.SrcAddr] = struct{}{}
	}
	if len(perDst) == 0 {
		return stats.Boxplot{}
	}
	sizes := make([]float64, 0, len(perDst))
	for _, m := range perDst {
		sizes = append(sizes, float64(len(m)))
	}
	return stats.Summarize(sizes)
}

// SpanUtilization reports what fraction of the addresses spanned by the
// n-bit blocks of cover actually appear as sources in the log — the §6.2
// "<2%" computation generalized.
func SpanUtilization(records []netflow.Record, cover ipset.Set, n int) (seen int, span uint64, frac float64) {
	sources := ipset.NewBuilder(0)
	for i := range records {
		sources.Add(records[i].SrcAddr)
	}
	inside := sources.Build().WithinBlocks(cover, n)
	span = uint64(cover.BlockCount(n)) << (32 - uint(n))
	seen = inside.Len()
	if span > 0 {
		frac = float64(seen) / float64(span)
	}
	return seen, span, frac
}

// Render prints the analysis as an aligned table plus the aggregate.
func (a *Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %8s %10s\n", "date", "sources", "new", "returning")
	for _, d := range a.Days {
		fmt.Fprintf(&b, "%-12s %9d %8d %10d\n", d.Date.Format("2006-01-02"), d.Sources, d.New, d.Returning)
	}
	fmt.Fprintf(&b, "working set: %d sources; returning fraction %.3f\n",
		a.WorkingSet.Len(), a.ReturningFraction())
	return b.String()
}
