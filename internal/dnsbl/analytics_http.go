package dnsbl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/sketch"
)

// The /debug/topk document: the per-shard sketches merged into one
// operator-facing view. Sketch counts are sampled 1-in-SampleN, so the
// rendered counts and error bounds are scaled back up by SampleN —
// they estimate packets, not samples. Prediction counts are exact
// (the scoreboard never samples).

// TopKEntry is one ranked row: a client address or a CIDR block with
// its (scaled) estimated count and error bound, plus — for listed
// blocks in mesh mode — the feeds that voted it in.
type TopKEntry struct {
	Key string `json:"key"`
	// Count estimates total packets (sample count × SampleN).
	Count uint64 `json:"count"`
	// Err bounds the overestimate: Count-Err ≤ true ≤ Count.
	Err uint64 `json:"err,omitempty"`
	// CMSEstimate, present on subnet rows, is the merged count-min
	// upper bound for the same block (also scaled).
	CMSEstimate uint64 `json:"cms_estimate,omitempty"`
	// Feeds attributes a listed block to the feeds that voted it in
	// (mesh mode only).
	Feeds []string `json:"feeds,omitempty"`
}

// PredictionDoc is the scoreboard section of /debug/topk.
type PredictionDoc struct {
	// Sweeps is how many list swaps have been diffed.
	Sweeps uint64 `json:"sweeps"`
	// Predicted counts addresses queried before the list contained
	// them — live confirmations of the paper's claim.
	Predicted uint64 `json:"predicted_total"`
	// PendingMisses is the not-listed answers awaiting the next sweep
	// (at scrape time; exact).
	PendingMisses int `json:"pending_misses"`
	// Lag quantiles of confirmed predictions (query → listing).
	LagP50 string `json:"lag_p50,omitempty"`
	LagP95 string `json:"lag_p95,omitempty"`
	LagP99 string `json:"lag_p99,omitempty"`
	// TopBlocks ranks the /24s confirmed predictions landed in
	// (exact counts, with feed attribution in mesh mode).
	TopBlocks []TopKEntry `json:"top_blocks,omitempty"`
}

// TopKDoc is the body of /debug/topk.
type TopKDoc struct {
	Zone    string `json:"zone"`
	SampleN uint64 `json:"sample_n"`
	// Sampled is how many packets entered the sketches; multiply by
	// SampleN for the approximate packet volume they represent.
	Sampled uint64 `json:"sampled_observations"`
	// UniqueClients estimates distinct querying clients among sampled
	// packets (HLL; a lower bound on true distinct clients — sampling
	// can only miss rare ones).
	UniqueClients uint64      `json:"unique_clients_estimate"`
	TopClients    []TopKEntry `json:"top_clients"`
	// HotSubnets ranks the /24s queries ask about (hit or miss).
	HotSubnets []TopKEntry `json:"hot_subnets"`
	// HitBlocks ranks where the listed answers land, per prefix width.
	HitBlocks  map[string][]TopKEntry `json:"hit_blocks"`
	Prediction PredictionDoc          `json:"prediction"`
}

// Snapshot merges every tap into the /debug/topk document. n caps each
// ranked list (0 means 10).
func (a *Analytics) Snapshot(n int) TopKDoc {
	if n <= 0 {
		n = 10
	}
	scale := a.sampleN
	attr := a.attributor.Load()

	a.mu.Lock()
	taps := make([]*tap, len(a.taps))
	copy(taps, a.taps)
	pred := a.pred24.Entries()
	unique := a.uniqueClientsLocked()
	a.mu.Unlock()

	collect := func(pick func(*tap) *sketch.TopK) []sketch.Entry {
		ts := make([]*sketch.TopK, len(taps))
		for i, t := range taps {
			ts[i] = pick(t)
		}
		es := sketch.MergeTopK(n, ts...)
		return es
	}
	addrKey := func(k uint32) string { return netaddr.Addr(k).String() }
	blockKey := func(bits int) func(uint32) string {
		return func(k uint32) string {
			return fmt.Sprintf("%s/%d", netaddr.Addr(k), bits)
		}
	}
	render := func(es []sketch.Entry, key func(uint32) string, scaled bool, withFeeds bool) []TopKEntry {
		out := make([]TopKEntry, 0, len(es))
		for _, e := range es {
			te := TopKEntry{Key: key(e.Key), Count: e.Count, Err: e.Err}
			if scaled {
				te.Count *= scale
				te.Err *= scale
			}
			if withFeeds && attr != nil {
				te.Feeds = (*attr)(netaddr.Addr(e.Key))
			}
			out = append(out, te)
		}
		return out
	}

	doc := TopKDoc{
		Zone:          a.zone,
		SampleN:       a.sampleN,
		Sampled:       a.cSampled.Value(),
		UniqueClients: uint64(unique),
		TopClients:    render(collect(func(t *tap) *sketch.TopK { return t.clients }), addrKey, true, false),
		HitBlocks:     map[string][]TopKEntry{},
	}

	// Hot subnets get the merged CMS estimate alongside the
	// space-saving count: two independent overestimates of the same
	// quantity, and the tighter one is whichever is smaller.
	cms := sketch.NewCMS(0, 0)
	for _, t := range taps {
		cms.Merge(t.cms) //nolint:errcheck // taps share one geometry
	}
	hot := collect(func(t *tap) *sketch.TopK { return t.hot24 })
	doc.HotSubnets = render(hot, blockKey(24), true, false)
	for i, e := range hot {
		doc.HotSubnets[i].CMSEstimate = uint64(cms.Estimate(e.Key)) * scale
	}

	doc.HitBlocks["/8"] = render(collect(func(t *tap) *sketch.TopK { return t.hit8 }), blockKey(8), true, false)
	doc.HitBlocks["/16"] = render(collect(func(t *tap) *sketch.TopK { return t.hit16 }), blockKey(16), true, false)
	doc.HitBlocks["/24"] = render(collect(func(t *tap) *sketch.TopK { return t.hit24 }), blockKey(24), true, true)

	doc.Prediction = PredictionDoc{
		Sweeps:        a.cSweeps.Value(),
		Predicted:     a.cPredicted.Value(),
		PendingMisses: a.pendingMisses(taps),
	}
	lag := a.hLag.Snapshot()
	doc.Prediction.LagP50 = lagString(lag.P50)
	doc.Prediction.LagP95 = lagString(lag.P95)
	doc.Prediction.LagP99 = lagString(lag.P99)
	sort.Slice(pred, func(i, j int) bool { return pred[i].Count > pred[j].Count })
	if len(pred) > n {
		pred = pred[:n]
	}
	doc.Prediction.TopBlocks = render(pred, blockKey(24), false, true)
	return doc
}

func lagString(d time.Duration) string {
	if d == obs.NoData {
		return ""
	}
	return d.Round(time.Millisecond).String()
}

// pendingMisses counts unconsumed miss-ring entries across taps.
func (a *Analytics) pendingMisses(taps []*tap) int {
	n := 0
	for _, t := range taps {
		for i := range t.ring {
			if t.ring[i].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// Handler serves the merged analytics view as JSON — mount at
// /debug/topk. Query parameter n= caps each ranked list (default 10,
// max 1000).
func (a *Analytics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 10
		if ns := req.URL.Query().Get("n"); ns != "" {
			v, err := strconv.Atoi(ns)
			if err != nil || v < 1 || v > 1000 {
				http.Error(w, fmt.Sprintf("bad n %q", ns), http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Snapshot(n)) //nolint:errcheck // client went away
	})
}
