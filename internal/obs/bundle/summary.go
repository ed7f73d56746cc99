package bundle

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/watchdog"
)

// Offline triage. Summarize renders a bundle as one screen of text —
// the view `uncleanctl diagnose -summarize FILE` prints — entirely from
// the bundle's own bytes. Every member decodes into the type its
// writer encodes, so a summary that renders is also a structural
// round-trip check on the whole bundle. Decoding is lenient (unknown
// fields ignored, missing fields zero) because a bundle may outlive
// the build that wrote it.

// gzipMagic opens every pprof profile runtime/pprof writes.
var gzipMagic = []byte{0x1f, 0x8b}

// Summarize prints the one-screen triage view of b to w. It returns an
// error only for members that exist but fail to parse — a structurally
// broken bundle should fail the diagnose command, not render a
// half-screen.
func Summarize(w io.Writer, b *Bundle) error {
	man := b.Manifest
	fmt.Fprintf(w, "diagnostics bundle  reason=%s  created=%s\n", man.Reason, man.CreatedAt)
	id := fmt.Sprintf("  host=%s pid=%d %s %s", man.Hostname, man.PID, man.GoVersion, man.Platform)
	if man.Revision != "" {
		rev := man.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		id += " rev=" + rev
	}
	if man.Uptime != "" {
		id += " uptime=" + man.Uptime
	}
	fmt.Fprintln(w, id)

	if data := b.File(TriggerName); data != nil {
		var t watchdog.Trigger
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", TriggerName, err)
		}
		fmt.Fprintf(w, "\nTRIGGER  %s: %s\n", t.Rule, t.Evidence)
	} else if man.Evidence != "" {
		fmt.Fprintf(w, "\nTRIGGER  %s\n", man.Evidence)
	}

	if data := b.File(HealthName); data != nil {
		var h obs.ReadyDoc
		if err := json.Unmarshal(data, &h); err != nil {
			return fmt.Errorf("%s: %w", HealthName, err)
		}
		verdict := "READY"
		if !h.Ready {
			verdict = "NOT READY"
		}
		fmt.Fprintf(w, "\nHEALTH   %s (%d checks)\n", verdict, len(h.Checks))
		for _, name := range sortedKeys(h.Checks) {
			if c := h.Checks[name]; !c.OK {
				fmt.Fprintf(w, "  FAIL %s: %s\n", name, c.Detail)
			}
		}
	}

	if data := b.File(MeshName); data != nil {
		var m feedmesh.Status
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("%s: %w", MeshName, err)
		}
		fmt.Fprintf(w, "\nMESH     round=%d feeds=%d/%d healthy degraded=%v\n",
			m.Round, m.HealthyFeeds, m.TotalFeeds, m.Degraded)
		for _, f := range m.Feeds {
			health := f.Health()
			if health == feedmesh.StateHealthy.String() {
				continue
			}
			line := fmt.Sprintf("  %s %s", health, f.Name)
			if f.LastError != "" {
				line += ": " + f.LastError
			}
			fmt.Fprintln(w, line)
		}
	}

	if data := b.File(MetricsJSONName); data != nil {
		var m obs.MetricsDoc
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("%s: %w", MetricsJSONName, err)
		}
		var lines []string
		for _, mm := range m.Metrics {
			switch {
			case strings.HasPrefix(mm.Name, "unclean_runtime_") && mm.Value != nil:
				lines = append(lines, fmt.Sprintf("  %s = %d", mm.Series(), *mm.Value))
			case len(mm.BurnRate) > 0:
				var parts []string
				for _, win := range sortedKeys(mm.BurnRate) {
					parts = append(parts, fmt.Sprintf("%s=%.2f", win, mm.BurnRate[win]))
				}
				lines = append(lines, fmt.Sprintf("  %s burn %s",
					mm.Name, strings.Join(parts, " ")))
			case strings.HasPrefix(mm.Name, "unclean_watchdog_") && mm.Value != nil && *mm.Value > 0:
				lines = append(lines, fmt.Sprintf("  %s = %d", mm.Series(), *mm.Value))
			}
		}
		fmt.Fprintf(w, "\nMETRICS  %d series; highlights:\n", len(m.Metrics))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}

	if data := b.File(FlightName); data != nil {
		var f flight.EventsDoc
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", FlightName, err)
		}
		fmt.Fprintf(w, "\nFLIGHT   %d recorded, %d in ring, %d kept (errors/outliers); last kept:\n",
			f.Recorded, len(f.Events), len(f.Kept))
		kept := f.Kept
		const tail = 8
		if len(kept) > tail {
			kept = kept[len(kept)-tail:]
		}
		for _, ev := range kept {
			line := fmt.Sprintf("  %s %s %s", ev.Time, ev.Kind, ev.Verdict)
			if ev.Name != "" {
				line += " " + ev.Name
			}
			if ev.Detail != "" {
				line += ": " + ev.Detail
			}
			fmt.Fprintln(w, line)
		}
	}

	if names := b.ProfileNames(); len(names) > 0 {
		fmt.Fprintf(w, "\nPROFILES %d retained:\n", len(names))
		for _, name := range names {
			data := b.Files[name]
			state := "ok"
			if len(data) < 2 || data[0] != gzipMagic[0] || data[1] != gzipMagic[1] {
				state = "NOT A PPROF GZIP"
			}
			fmt.Fprintf(w, "  %-28s %6d bytes  %s\n", strings.TrimPrefix(name, ProfileDir), len(data), state)
		}
	}

	var failed []string
	for _, fe := range man.Files {
		if strings.HasPrefix(fe.Note, "FAILED:") {
			failed = append(failed, fe.Name+" ("+fe.Note+")")
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(w, "\nDEGRADED members that failed at capture time: %s\n",
			strings.Join(failed, ", "))
	}
	return nil
}

// sortedKeys returns a map's keys in order — summaries must render
// deterministically (golden tests diff them byte for byte).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
