package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health endpoints. Liveness (/healthz) answers "is the process up" —
// it always succeeds while the daemon can serve HTTP at all, so an
// orchestrator restarts only a truly wedged process. Readiness
// (/readyz) answers "should this instance receive traffic" by running
// named checks (breaker state, feed staleness, shed rate); any failing
// check flips the endpoint to 503 with a JSON body naming the culprit,
// so a load balancer drains the instance while it recovers.

// Check is one named readiness probe: ok plus a human-readable detail
// ("breaker closed", "feed stale by 3m12s"). Checks run on every
// /readyz request and must be cheap and safe for concurrent use.
type Check func() (ok bool, detail string)

// Health is a named set of readiness checks plus static info rendered
// into the readiness document (the bound serving address, the zone).
// All methods are safe for concurrent use.
type Health struct {
	mu     sync.Mutex
	order  []string
	checks map[string]Check
	info   map[string]string
}

// NewHealth builds an empty health set (ready until a check says no).
func NewHealth() *Health {
	return &Health{checks: make(map[string]Check), info: make(map[string]string)}
}

// AddCheck registers (or replaces) a named readiness check.
func (h *Health) AddCheck(name string, c Check) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.checks[name]; !ok {
		h.order = append(h.order, name)
	}
	h.checks[name] = c
}

// SetInfo attaches a static key/value rendered in the readiness
// document — the place the bound UDP address goes, so a prober that
// only knows the metrics port can find the serving socket.
func (h *Health) SetInfo(key, value string) {
	h.mu.Lock()
	h.info[key] = value
	h.mu.Unlock()
}

// CheckResult is one probe's outcome in the readiness document.
type CheckResult struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyDoc is the /readyz document: what ReadyHandler serves, what a
// bundle's health.json carries, and what uncleanctl status decodes.
type ReadyDoc struct {
	Ready  bool                   `json:"ready"`
	Checks map[string]CheckResult `json:"checks,omitempty"`
	Info   map[string]string      `json:"info,omitempty"`
}

// Ready runs every check and returns the readiness document: the
// aggregate, each check's outcome keyed by name, and a copy of the
// info.
func (h *Health) Ready() ReadyDoc {
	h.mu.Lock()
	names := append([]string(nil), h.order...)
	checks := make(map[string]Check, len(names))
	for n, c := range h.checks {
		checks[n] = c
	}
	info := make(map[string]string, len(h.info))
	for k, v := range h.info {
		info[k] = v
	}
	h.mu.Unlock()

	sort.Strings(names)
	doc := ReadyDoc{Ready: true, Checks: make(map[string]CheckResult, len(names)), Info: info}
	for _, n := range names {
		ok, detail := checks[n]()
		doc.Checks[n] = CheckResult{OK: ok, Detail: detail}
		if !ok {
			doc.Ready = false
		}
	}
	return doc
}

// LiveHandler serves /healthz: 200 "ok" while the process is up.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // client went away
	})
}

// ReadyHandler serves /readyz: 200 with the readiness document when
// every check passes, 503 with the same document when any fails.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		doc := h.Ready()
		w.Header().Set("Content-Type", "application/json")
		if !doc.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // client went away
	})
}
