package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types a registry holds.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindWindowedCounter
	KindWindowedHistogram
	KindSLO
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindWindowedCounter:
		return "windowed_counter"
	case KindWindowedHistogram:
		return "windowed_histogram"
	case KindSLO:
		return "slo"
	}
	return "unknown"
}

// promType maps a kind to the Prometheus TYPE keyword its text
// exposition uses. Windowed series and SLO burn rates are point-in-time
// computed values, so they expose as gauges.
func (k Kind) promType() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "gauge"
}

// Metric is one registered metric plus its exposition metadata.
type Metric struct {
	// Name is the base metric name (no labels).
	Name string
	// Help is the one-line description exposed as # HELP.
	Help string
	// Kind selects which of the value fields is populated.
	Kind Kind

	labels []string // alternating key, value pairs, escaped at render

	c   *Counter
	g   *Gauge
	h   *Histogram
	wc  *WindowedCounter
	wh  *WindowedHistogram
	slo *SLO
}

// FullName renders the Prometheus series name: name{k="v",...}.
func (m *Metric) FullName() string {
	if len(m.labels) == 0 {
		return m.Name
	}
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('{')
	b.WriteString(renderLabels(m.labels, "", ""))
	b.WriteByte('}')
	return b.String()
}

// Labels returns the label pairs as a map (nil when unlabeled).
func (m *Metric) Labels() map[string]string {
	if len(m.labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(m.labels)/2)
	for i := 0; i+1 < len(m.labels); i += 2 {
		out[m.labels[i]] = m.labels[i+1]
	}
	return out
}

// renderLabels renders alternating k,v pairs as `k="v",...`, appending
// one extra pair when extraK is nonempty (used for histogram le labels).
func renderLabels(pairs []string, extraK, extraV string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry is a set of named metrics. Lookup is get-or-create: asking
// for the same name+labels twice returns the same metric, so packages
// can share series without plumbing. All methods are safe for
// concurrent use; the returned metric pointers are the hot-path handles
// and never require the registry again.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*Metric
	hooks []func()
	// runtime is set once RegisterRuntimeGauges has hooked the registry.
	runtime atomic.Bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Metric)}
}

// defaultRegistry backs Default(). Process-wide singletons (retry
// attempts, checkpoint CRC failures, feed lag) live here.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name and the optional
// alternating label key/value pairs, creating it on first use. Label
// order is canonicalized: the same name with the same pairs in any
// order resolves to one series. Misuse (a kind collision, an odd label
// list, an empty name) must never take a serving daemon down, so it
// does not panic: the error is logged and a live but detached metric is
// returned — usable by the caller, invisible to scrapes. Use Register
// to observe the error directly.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m, err := r.Register(KindCounter, name, help, labels...)
	if err != nil {
		registryMisuse(err)
		return new(Counter)
	}
	return m.c
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m, err := r.Register(KindGauge, name, help, labels...)
	if err != nil {
		registryMisuse(err)
		return new(Gauge)
	}
	return m.g
}

// Histogram is Counter for histograms.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	m, err := r.Register(KindHistogram, name, help, labels...)
	if err != nil {
		registryMisuse(err)
		return new(Histogram)
	}
	return m.h
}

// WindowedCounter is Counter for rolling-window counters.
func (r *Registry) WindowedCounter(name, help string, labels ...string) *WindowedCounter {
	m, err := r.Register(KindWindowedCounter, name, help, labels...)
	if err != nil {
		registryMisuse(err)
		return NewWindowedCounter()
	}
	return m.wc
}

// WindowedHistogram is Counter for rolling-window histograms.
func (r *Registry) WindowedHistogram(name, help string, labels ...string) *WindowedHistogram {
	m, err := r.Register(KindWindowedHistogram, name, help, labels...)
	if err != nil {
		registryMisuse(err)
		return NewWindowedHistogram()
	}
	return m.wh
}

// RegisterSLO registers an SLO for exposition under slo.Name (get-or-
// create like every other kind: registering the same name+labels twice
// returns the first SLO). The good/total counters are the caller's; the
// registry only renders burn rates from them. Misuse is logged and the
// argument returned detached, never a panic.
func (r *Registry) RegisterSLO(slo *SLO, labels ...string) *SLO {
	if slo == nil {
		registryMisuse(fmt.Errorf("obs: nil SLO"))
		return slo
	}
	if slo.Name == "" || len(labels)%2 != 0 {
		registryMisuse(fmt.Errorf("obs: SLO %q: empty name or odd label list %q", slo.Name, labels))
		return slo
	}
	labels = canonicalLabels(labels)
	key := slo.Name + "\x00" + strings.Join(labels, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.Kind != KindSLO {
			registryMisuse(fmt.Errorf("obs: metric %s registered as %s, requested as slo", slo.Name, m.Kind))
			return slo
		}
		return m.slo
	}
	r.byKey[key] = &Metric{Name: slo.Name, Help: slo.Help, Kind: KindSLO, labels: labels, slo: slo}
	return slo
}

// registryMisuse reports a registration programmer error without
// crashing the process: observability must never be the reason the
// daemon died.
func registryMisuse(err error) {
	Logger("obs").Error("metric registration misuse; returning detached metric", "error", err)
}

// Register is the error-returning get-or-create: it returns the metric
// registered under kind+name+labels, creating it on first use, or an
// error when the series already exists as a different kind, the label
// list has odd length, or the name is empty. Label pairs are sorted by
// key before keying, so registration order of labels never splits a
// series. SLOs register through RegisterSLO, not here.
func (r *Registry) Register(kind Kind, name, help string, labels ...string) (*Metric, error) {
	if name == "" {
		return nil, fmt.Errorf("obs: empty metric name")
	}
	if kind == KindSLO {
		return nil, fmt.Errorf("obs: metric %s: SLOs register through RegisterSLO", name)
	}
	if len(labels)%2 != 0 {
		return nil, fmt.Errorf("obs: metric %s: odd label list %q", name, labels)
	}
	labels = canonicalLabels(labels)
	key := name + "\x00" + strings.Join(labels, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.Kind != kind {
			return nil, fmt.Errorf("obs: metric %s registered as %s, requested as %s", name, m.Kind, kind)
		}
		return m, nil
	}
	m := &Metric{Name: name, Help: help, Kind: kind, labels: labels}
	switch kind {
	case KindCounter:
		m.c = new(Counter)
	case KindGauge:
		m.g = new(Gauge)
	case KindHistogram:
		m.h = new(Histogram)
	case KindWindowedCounter:
		m.wc = NewWindowedCounter()
	case KindWindowedHistogram:
		m.wh = NewWindowedHistogram()
	}
	r.byKey[key] = m
	return m, nil
}

// canonicalLabels returns the pairs sorted by key (stable for equal
// keys), always in a fresh slice.
func canonicalLabels(labels []string) []string {
	out := append([]string(nil), labels...)
	// Insertion sort over pairs: label lists are short (1–3 pairs).
	for i := 2; i < len(out); i += 2 {
		for j := i; j > 0 && out[j] < out[j-2]; j -= 2 {
			out[j], out[j-2] = out[j-2], out[j]
			out[j+1], out[j-1] = out[j-1], out[j+1]
		}
	}
	return out
}

// OnScrape registers a hook the exposition formats run before reading
// the registry — the place a sampled metric source (the runtime/metrics
// gauges, a /proc reader) refreshes its gauges so every scrape sees
// current values without a background poller. Hooks must be cheap, safe
// for concurrent use, and never block: they run on the scrape path.
func (r *Registry) OnScrape(fn func()) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// runScrapeHooks runs the registered hooks outside the registry lock.
func (r *Registry) runScrapeHooks() {
	r.mu.Lock()
	hooks := r.hooks
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Metrics returns the registered metrics sorted by full series name —
// the stable order the exposition formats use.
func (r *Registry) Metrics() []*Metric {
	r.mu.Lock()
	out := make([]*Metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].FullName() < out[j].FullName()
	})
	return out
}
