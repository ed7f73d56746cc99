package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WireEvent is the JSON form of one event, human-first: times are
// RFC3339, addresses dotted quads, flags named.
type WireEvent struct {
	Seq     uint64   `json:"seq"`
	Time    string   `json:"time"`
	Kind    string   `json:"kind"`
	Verdict string   `json:"verdict,omitempty"`
	Name    string   `json:"name,omitempty"`
	Client  string   `json:"client,omitempty"`
	Addr    string   `json:"addr,omitempty"`
	Latency string   `json:"latency,omitempty"`
	Flags   []string `json:"flags,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// wireEvents renders events in their JSON form (empty, never nil).
func wireEvents(evs []Event) []WireEvent {
	out := make([]WireEvent, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		w := WireEvent{
			Seq:     ev.Seq,
			Time:    time.Unix(0, ev.Unix).UTC().Format(time.RFC3339Nano),
			Kind:    ev.Kind.String(),
			Verdict: ev.Verdict,
			Name:    ev.Name,
			Flags:   ev.Flags.Names(),
			Value:   ev.Value,
			Detail:  ev.Detail,
		}
		if ev.Client != 0 {
			w.Client = ev.Client.String()
		}
		if ev.Addr != 0 {
			w.Addr = ev.Addr.String()
		}
		if ev.Latency > 0 {
			w.Latency = ev.Latency.String()
		}
		out = append(out, w)
	}
	return out
}

// EventsDoc is the body of /debug/events and, with its dump fields
// set, of a diagnostics bundle's flight.json.
type EventsDoc struct {
	// Recorded is the total events ever recorded (dense sequence).
	Recorded uint64 `json:"recorded"`
	// Events are the selected events, oldest first.
	Events []WireEvent `json:"events"`
	// Kept, present only in dumps, is the error/outlier ring.
	Kept []WireEvent `json:"kept,omitempty"`
	// DumpedAt, present only in dumps, stamps the dump time.
	DumpedAt string `json:"dumped_at,omitempty"`
	// Reason, present only in dumps, says why it was taken.
	Reason string `json:"reason,omitempty"`
}

func encodeDoc(w io.Writer, doc EventsDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteJSON renders the events matching f as the /debug/events JSON
// document.
func (r *Recorder) WriteJSON(w io.Writer, f Filter) error {
	evs := r.Snapshot(f)
	return encodeDoc(w, EventsDoc{Recorded: r.Len(), Events: wireEvents(evs)})
}

// EncodeDump renders both rings (all events, no filter) as the dump
// document a diagnostics bundle carries as flight.json.
func (r *Recorder) EncodeDump(w io.Writer, reason string) error {
	evs := r.Snapshot(Filter{})
	kept := r.Snapshot(Filter{Kept: true})
	doc := EventsDoc{
		Recorded: r.Len(),
		Events:   wireEvents(evs),
		Kept:     wireEvents(kept),
		DumpedAt: r.now().UTC().Format(time.RFC3339Nano),
		Reason:   reason,
	}
	if err := encodeDoc(w, doc); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	return nil
}

// parseFilter reads the /debug/events query parameters:
//
//	kind=query,feed_load   restrict kinds
//	min_latency=1ms        minimum latency (Go duration)
//	flags=err|shed|...     require at least one named flag
//	n=100                  newest-N cap (default 250, 0 = all)
//	kept=1                 read the kept (error/outlier) ring
func parseFilter(req *http.Request) (Filter, error) {
	f := Filter{Max: 250}
	q := req.URL.Query()
	if ks := q.Get("kind"); ks != "" {
		for _, part := range strings.Split(ks, ",") {
			k, ok := ParseKind(strings.TrimSpace(part))
			if !ok {
				return f, fmt.Errorf("unknown kind %q", part)
			}
			f.Kinds = append(f.Kinds, k)
		}
	}
	if ms := q.Get("min_latency"); ms != "" {
		d, err := time.ParseDuration(ms)
		if err != nil {
			return f, fmt.Errorf("bad min_latency: %v", err)
		}
		f.MinLatency = d
	}
	if fs := q.Get("flags"); fs != "" {
		for _, part := range strings.Split(fs, ",") {
			part = strings.TrimSpace(part)
			found := false
			for _, fn := range flagNames {
				if fn.n == part {
					f.Flags |= fn.f
					found = true
				}
			}
			if !found {
				return f, fmt.Errorf("unknown flag %q", part)
			}
		}
	}
	if ns := q.Get("n"); ns != "" {
		n, err := strconv.Atoi(ns)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad n %q", ns)
		}
		f.Max = n
	}
	if ks := q.Get("kept"); ks == "1" || strings.EqualFold(ks, "true") {
		f.Kept = true
	}
	return f, nil
}

// Handler serves the ring as JSON — mount at /debug/events. See
// parseFilter for the query parameters.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f, err := parseFilter(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w, f) //nolint:errcheck // client went away
	})
}
