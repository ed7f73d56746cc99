package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer keeps spans in memory until the run ends. Spans are recorded by
// the benchmark around its calls into the program's public functions;
// the program itself carries no benchmark spans. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	open  []int // indices of the spans begun and not yet ended
	spans []span
}

// span is one timed interval. Spans of one pass share Run, the pass's
// number within a paper run; Parent is the index of the enclosing span,
// -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.base).Nanoseconds(), End: -1, Parent: t.parent()})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.base).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// add records an interval already measured, inside the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.base).Nanoseconds(),
		End: end.Sub(t.base).Nanoseconds(), Parent: t.parent()})
}

// selfTimes sums each span name's self time: its duration minus the
// time its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write saves the spans and each layer's self time as JSON.
func (t *tracer) write(path string, r *runReport) error {
	self := map[string]float64{}
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds()
	}
	b, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{r.Workload, r.Seed, self, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
