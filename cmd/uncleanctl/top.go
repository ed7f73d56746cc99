package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"unclean/internal/dnsbl"
)

// cmdTop is the operator's view of what a running dnsbld is being asked
// about: it reads /debug/topk — the merged per-shard analytics sketches
// and the prediction scoreboard — and renders top clients, hottest
// subnets, where the listed answers land, and the addresses that were
// queried before the feed listed them. It needs only the -metrics
// address the daemon was started with (and the daemon must not have
// disabled analytics with -analytics-sample 0).
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	metrics := fs.String("metrics", "", "dnsbld diagnostic HTTP address (required; host:port of its -metrics flag)")
	n := fs.Int("n", 10, "rows per ranked list")
	timeout := fs.Duration("timeout", 3*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics == "" {
		return fmt.Errorf("top: -metrics is required")
	}
	if *n < 1 || *n > 1000 {
		return fmt.Errorf("top: -n must be in [1, 1000]; got %d", *n)
	}
	base := *metrics
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: *timeout}
	return writeTop(os.Stdout, client, base, *n)
}

// writeTop renders the analytics view to w. Split from cmdTop so tests
// can point it at an httptest server and a buffer.
func writeTop(w io.Writer, client *http.Client, base string, n int) error {
	var doc dnsbl.TopKDoc
	if err := getJSON(client, base, fmt.Sprintf("/debug/topk?n=%d", n), &doc); err != nil {
		return fmt.Errorf("top: %w (is the daemon running with analytics enabled?)", err)
	}

	fmt.Fprintf(w, "dnsbld %s zone %s: %d packets sampled (1 in %d), ~%d unique clients\n",
		base, doc.Zone, doc.Sampled, doc.SampleN, doc.UniqueClients)

	writeRank(w, "top clients", doc.TopClients)
	writeRank(w, "hot /24 subnets", doc.HotSubnets)
	for _, width := range []string{"/8", "/16", "/24"} {
		if rows := doc.HitBlocks[width]; len(rows) > 0 {
			writeRank(w, "listed answers by "+width, rows)
		}
	}

	p := doc.Prediction
	fmt.Fprintf(w, "\nprediction scoreboard: %d sweeps, %d confirmed (queried before listed), %d misses pending\n",
		p.Sweeps, p.Predicted, p.PendingMisses)
	if p.LagP50 != "" {
		fmt.Fprintf(w, "  query→listing lag: p50 %s, p95 %s, p99 %s\n", p.LagP50, p.LagP95, p.LagP99)
	}
	for _, r := range p.TopBlocks {
		line := fmt.Sprintf("  %-20s %8d confirmed", r.Key, r.Count)
		if len(r.Feeds) > 0 {
			line += "  listed by " + strings.Join(r.Feeds, ", ")
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// writeRank renders one ranked list. Counts are the sketch estimates
// already scaled to packets; err is the overestimate bound (the true
// count is within [count-err, count]).
func writeRank(w io.Writer, title string, rows []dnsbl.TopKEntry) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	for _, r := range rows {
		line := fmt.Sprintf("  %-20s %8d", r.Key, r.Count)
		if r.Err > 0 {
			line += fmt.Sprintf(" (±%d)", r.Err)
		}
		if r.CMSEstimate > 0 {
			line += fmt.Sprintf("  cms≤%d", r.CMSEstimate)
		}
		if len(r.Feeds) > 0 {
			line += "  listed by " + strings.Join(r.Feeds, ", ")
		}
		fmt.Fprintln(w, line)
	}
}
