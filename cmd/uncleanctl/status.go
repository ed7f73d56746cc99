package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// cmdStatus is the operator's one-screen view of a running dnsbld: it
// reads the daemon's diagnostic HTTP surface (/readyz, /debug/mesh,
// /metrics.json, /debug/events) and renders health, the feed table, SLO
// burn, rolling-window serving rates, and the most recent
// flight-recorder events. It needs only the -metrics address the daemon
// was started with.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	metrics := fs.String("metrics", "", "dnsbld diagnostic HTTP address (required; host:port of its -metrics flag)")
	events := fs.Int("events", 10, "recent flight events to show (0 disables)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics == "" {
		return fmt.Errorf("status: -metrics is required")
	}
	base := *metrics
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: *timeout}
	return writeStatus(os.Stdout, client, base, *events)
}

// getJSON fetches base+path into v. A 503 from /readyz is a valid
// answer (not ready), so any status with a decodable body passes.
func getJSON(client *http.Client, base, path string, v any) error {
	res, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("GET %s: status %d: %.200s", path, res.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %v", path, err)
	}
	return nil
}

// writeStatus renders the one-screen status to w. Split from cmdStatus
// so tests can point it at an httptest server and a buffer.
func writeStatus(w io.Writer, client *http.Client, base string, nEvents int) error {
	var ready obs.ReadyDoc
	if err := getJSON(client, base, "/readyz", &ready); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var mesh feedmesh.Status
	if err := getJSON(client, base, "/debug/mesh", &mesh); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var mets obs.MetricsDoc
	if err := getJSON(client, base, "/metrics.json", &mets); err != nil {
		return fmt.Errorf("status: %w", err)
	}

	state := "READY"
	if !ready.Ready {
		state = "NOT READY"
	}
	fmt.Fprintf(w, "dnsbld %s: %s\n", base, state)
	names := make([]string, 0, len(ready.Checks))
	for n := range ready.Checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := ready.Checks[n]
		mark := "ok"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%-4s] %-14s %s\n", mark, n, c.Detail)
	}
	if len(ready.Info) > 0 {
		keys := make([]string, 0, len(ready.Info))
		for k := range ready.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  info:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, ready.Info[k])
		}
		fmt.Fprintln(w)
	}

	writeFeedTable(w, mesh)

	// SLOs and the rolling serving windows. The feed table above already
	// shows each feed's loads and failures, so the mesh's per-feed
	// windows are not repeated here.
	for _, m := range mets.Metrics {
		if strings.HasPrefix(m.Name, "unclean_feedmesh_") {
			continue
		}
		switch m.Kind {
		case "slo":
			fmt.Fprintf(w, "\nslo %s:", m.Series())
			if m.Target != nil {
				fmt.Fprintf(w, " target %.4g%%", *m.Target*100)
			}
			wins := make([]string, 0, len(m.BurnRate))
			for win := range m.BurnRate {
				wins = append(wins, win)
			}
			sort.Strings(wins)
			for _, win := range wins {
				fmt.Fprintf(w, "  burn[%s]=%.3g", win, m.BurnRate[win])
			}
			fmt.Fprintln(w)
		case "windowed_histogram":
			jw, ok := m.Windows["1m"]
			if !ok || jw.Count == nil {
				continue
			}
			fmt.Fprintf(w, "%s last 1m: %d observed", m.Series(), *jw.Count)
			if jw.P50Seconds != nil && jw.P99Seconds != nil {
				fmt.Fprintf(w, ", p50 %s, p99 %s",
					time.Duration(*jw.P50Seconds*1e9).Round(time.Microsecond),
					time.Duration(*jw.P99Seconds*1e9).Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		case "windowed_counter":
			jw, ok := m.Windows["1m"]
			if !ok || jw.Total == nil || *jw.Total == 0 {
				continue // an idle error/shed counter is noise, not signal
			}
			fmt.Fprintf(w, "%s last 1m: %d (%.3g/s)\n", m.Series(), *jw.Total, deref(jw.RatePerSec))
		}
	}

	if nEvents > 0 {
		var evs flight.EventsDoc
		if err := getJSON(client, base, fmt.Sprintf("/debug/events?n=%d", nEvents), &evs); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		fmt.Fprintf(w, "\nrecent events (%d of %d recorded):\n", len(evs.Events), evs.Recorded)
		for _, e := range evs.Events {
			line := fmt.Sprintf("  #%-6d %s %-10s %s", e.Seq, e.Time, e.Kind, e.Verdict)
			if e.Client != "" {
				line += " client=" + e.Client
			}
			if e.Addr != "" {
				line += " addr=" + e.Addr
			}
			if e.Latency != "" {
				line += " " + e.Latency
			}
			if len(e.Flags) > 0 {
				line += " [" + strings.Join(e.Flags, ",") + "]"
			}
			if e.Detail != "" {
				line += " — " + e.Detail
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// writeFeedTable renders the feed-mesh section from the daemon's
// /debug/mesh document: one summary line for the mesh, then a row per
// feed, labeled by the mesh's own health rule.
func writeFeedTable(w io.Writer, st feedmesh.Status) {
	fmt.Fprintf(w, "\nfeed mesh: %d/%d feeds healthy, %d merged blocks", st.HealthyFeeds, st.TotalFeeds, st.MergedBlocks)
	if st.Degraded {
		fmt.Fprint(w, " — DEGRADED, serving last-good list")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-16s %-12s %7s %7s %6s %6s %9s %7s %6s %6s\n",
		"FEED", "STATE", "QUALITY", "WEIGHT", "DUP", "FP", "LAG", "ADDRS", "LOADS", "FAILS")
	for _, f := range st.Feeds {
		fmt.Fprintf(w, "  %-16s %-12s %7.2f %7.2f %6.2f %6.2f %9s %7d %6d %6d\n",
			f.Name, f.Health(), f.Quality, f.Weight, f.DupRatio, f.FPRate,
			f.Lag.Round(time.Second), f.BatchAddrs, f.Loads, f.Failures)
	}
}

func deref(f *float64) float64 {
	if f == nil {
		return 0
	}
	return *f
}
