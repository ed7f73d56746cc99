package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Exposition: the same registry contents rendered two ways — the
// Prometheus text format for scrapers, and a JSON snapshot (with
// precomputed p50/p95/p99) for humans with curl and for tests.

// WriteText renders the metrics of regs in the Prometheus text
// exposition format, merged and sorted by series name. Metrics sharing
// a base name (same series, different labels) are grouped under one
// HELP/TYPE header.
func WriteText(w io.Writer, regs ...*Registry) error {
	for _, r := range regs {
		r.runScrapeHooks()
	}
	lastName := ""
	for _, m := range merged(regs) {
		first := m.Name != lastName
		lastName = m.Name
		if m.Kind == KindSLO {
			// SLOs expose derived series (_burn_rate, _target) and
			// write their own headers.
			if err := writeSLO(w, m, first); err != nil {
				return err
			}
			continue
		}
		if first {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind.promType()); err != nil {
				return err
			}
		}
		if err := writeSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

// Samples returns the sample lines WriteText prints for regs (scrape
// hooks included), keyed by series exactly as /metrics spells it —
// `name{k="v",...}`, or the bare name — with each line's value. It is
// how a reader inside the process sees the same numbers a scraper does.
func Samples(regs ...*Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := WriteText(&buf, regs...); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// Values never hold a space; escaped label values may.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

func writeSeries(w io.Writer, m *Metric) error {
	switch m.Kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", m.FullName(), m.c.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", m.FullName(), m.g.Value())
		return err
	case KindHistogram:
		return writeHistogram(w, m)
	case KindWindowedCounter:
		for _, win := range Windows {
			if _, err := fmt.Fprintf(w, "%s{%s} %d\n",
				m.Name, renderLabels(m.labels, "window", win.Name), m.wc.Total(win.D)); err != nil {
				return err
			}
		}
		return nil
	case KindWindowedHistogram:
		return writeWindowedHistogram(w, m)
	}
	return nil
}

// writeWindowedHistogram renders each window as a summary-style block:
// count plus quantile-labeled gauges in seconds. Windows with no
// observations emit only their count — a NoData quantile never renders.
func writeWindowedHistogram(w io.Writer, m *Metric) error {
	for _, win := range Windows {
		s := m.wh.Snapshot(win.D)
		if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n",
			m.Name, renderLabels(m.labels, "window", win.Name), s.Count); err != nil {
			return err
		}
		if s.Count == 0 {
			continue
		}
		for _, qv := range [...]struct {
			q string
			d time.Duration
		}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
			val := strconv.FormatFloat(qv.d.Seconds(), 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s{%s,quantile=\"%s\"} %s\n",
				m.Name, renderLabels(m.labels, "window", win.Name), qv.q, val); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSLO renders an SLO's derived series: the target ratio and the
// burn rate over its short and long windows.
func writeSLO(w io.Writer, m *Metric, first bool) error {
	s := m.slo
	if s == nil {
		return nil
	}
	if first {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s_burn_rate %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_burn_rate gauge\n# TYPE %s_target gauge\n",
			m.Name, m.Name); err != nil {
			return err
		}
	}
	suffix := ""
	if len(m.labels) > 0 {
		suffix = "{" + renderLabels(m.labels, "", "") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_target%s %s\n", m.Name, suffix,
		strconv.FormatFloat(s.Target, 'g', -1, 64)); err != nil {
		return err
	}
	for _, win := range burnWindows {
		if _, err := fmt.Fprintf(w, "%s_burn_rate{%s} %s\n",
			m.Name, renderLabels(m.labels, "window", win.Name),
			strconv.FormatFloat(s.BurnRate(win.D), 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders cumulative le-buckets (seconds), sum, and
// count. Buckets above the highest populated one are elided; the +Inf
// bucket always appears.
func writeHistogram(w io.Writer, m *Metric) error {
	h := m.h
	var counts [histBuckets]uint64
	top := -1
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= top && i < histBuckets-1; i++ {
		cum += counts[i]
		le := strconv.FormatFloat(float64(bucketUpper(i))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n",
			m.Name, renderLabels(m.labels, "le", le), cum); err != nil {
			return err
		}
	}
	if top == histBuckets-1 {
		cum += counts[histBuckets-1]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n",
		m.Name, renderLabels(m.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	sum := strconv.FormatFloat(h.Sum().Seconds(), 'g', -1, 64)
	suffix := ""
	if len(m.labels) > 0 {
		suffix = "{" + renderLabels(m.labels, "", "") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, suffix, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, suffix, h.Count())
	return err
}

// MetricsDoc is the /metrics.json document: the JSON snapshot WriteJSON
// encodes and every reader (uncleanctl status, bundle summaries)
// decodes.
type MetricsDoc struct {
	Metrics []MetricDoc `json:"metrics"`
}

// MetricDoc is the wire form of one metric in the JSON snapshot.
type MetricDoc struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  *int64            `json:"value,omitempty"`

	Count      *uint64  `json:"count,omitempty"`
	SumSecs    *float64 `json:"sum_seconds,omitempty"`
	P50Seconds *float64 `json:"p50_seconds,omitempty"`
	P95Seconds *float64 `json:"p95_seconds,omitempty"`
	P99Seconds *float64 `json:"p99_seconds,omitempty"`

	// Windows holds per-window totals (windowed counters) or quantile
	// summaries (windowed histograms), keyed "1m"/"5m"/"1h".
	Windows map[string]WindowDoc `json:"windows,omitempty"`
	// Target and BurnRate render SLOs.
	Target   *float64           `json:"target,omitempty"`
	BurnRate map[string]float64 `json:"burn_rate,omitempty"`
}

// WindowDoc is one rolling window's worth of a windowed metric.
type WindowDoc struct {
	Total      *uint64  `json:"total,omitempty"`
	RatePerSec *float64 `json:"rate_per_second,omitempty"`
	Count      *uint64  `json:"count,omitempty"`
	P50Seconds *float64 `json:"p50_seconds,omitempty"`
	P95Seconds *float64 `json:"p95_seconds,omitempty"`
	P99Seconds *float64 `json:"p99_seconds,omitempty"`
}

// Series renders the metric's name with its labels as name{k=v,...},
// sorted by key (the bare name when it has none) — the form the
// operator views print.
func (m MetricDoc) Series() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m.Labels[k]
	}
	return m.Name + "{" + strings.Join(parts, ",") + "}"
}

// WriteJSON renders the metrics of regs as a JSON document:
// {"metrics":[...]} with histogram quantiles precomputed.
func WriteJSON(w io.Writer, regs ...*Registry) error {
	for _, r := range regs {
		r.runScrapeHooks()
	}
	metrics := merged(regs)
	out := MetricsDoc{Metrics: make([]MetricDoc, 0, len(metrics))}
	for _, m := range metrics {
		jm := MetricDoc{Name: m.Name, Labels: m.Labels(), Kind: m.Kind.String()}
		switch m.Kind {
		case KindCounter:
			v := int64(m.c.Value())
			jm.Value = &v
		case KindGauge:
			v := m.g.Value()
			jm.Value = &v
		case KindHistogram:
			s := m.h.Snapshot()
			sum := s.Sum.Seconds()
			jm.Count, jm.SumSecs = &s.Count, &sum
			// A NoData quantile (empty histogram) is omitted, not
			// rendered as a nonsense negative duration.
			if s.Count > 0 {
				p50, p95, p99 := s.P50.Seconds(), s.P95.Seconds(), s.P99.Seconds()
				jm.P50Seconds, jm.P95Seconds, jm.P99Seconds = &p50, &p95, &p99
			}
		case KindWindowedCounter:
			jm.Windows = make(map[string]WindowDoc, len(Windows))
			for _, win := range Windows {
				total, rate := m.wc.Total(win.D), m.wc.Rate(win.D)
				jm.Windows[win.Name] = WindowDoc{Total: &total, RatePerSec: &rate}
			}
		case KindWindowedHistogram:
			jm.Windows = make(map[string]WindowDoc, len(Windows))
			for _, win := range Windows {
				s := m.wh.Snapshot(win.D)
				jw := WindowDoc{Count: &s.Count}
				if s.Count > 0 {
					p50, p95, p99 := s.P50.Seconds(), s.P95.Seconds(), s.P99.Seconds()
					jw.P50Seconds, jw.P95Seconds, jw.P99Seconds = &p50, &p95, &p99
				}
				jm.Windows[win.Name] = jw
			}
		case KindSLO:
			if s := m.slo; s != nil {
				target := s.Target
				jm.Target = &target
				jm.BurnRate = make(map[string]float64, len(burnWindows))
				for _, win := range burnWindows {
					jm.BurnRate[win.Name] = s.BurnRate(win.D)
				}
			}
		}
		out.Metrics = append(out.Metrics, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// merged collects and re-sorts the metrics of several registries.
func merged(regs []*Registry) []*Metric {
	var all []*Metric
	for _, r := range regs {
		all = append(all, r.Metrics()...)
	}
	// Each registry is sorted; a simple stable re-sort merges them.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && less(all[j], all[j-1]); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

func less(a, b *Metric) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.FullName() < b.FullName()
}

// Handler serves the merged registries: the Prometheus text format by
// default, the JSON snapshot when the request path ends in ".json".
// Mount it at both /metrics and /metrics.json.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, ".json") {
			w.Header().Set("Content-Type", "application/json")
			WriteJSON(w, regs...) //nolint:errcheck // client went away
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteText(w, regs...) //nolint:errcheck // client went away
	})
}
