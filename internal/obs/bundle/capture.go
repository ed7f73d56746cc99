package bundle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"unclean/internal/atomicfile"
	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/prof"
	"unclean/internal/obs/watchdog"
)

// Capture glue: turning the daemon's live diagnostics surfaces into one
// bundle. Every source is optional — a capture with only metrics is
// still a capture — and per-source failures degrade to an omitted
// member plus a note, never a failed capture: the whole point of the
// bundle is to exist when things are already going wrong.

// DirEnv names the environment variable that, when set, gives captures
// a default output directory — the hook CI uses to collect bundles from
// failing test jobs.
const DirEnv = "UNCLEAN_BUNDLE_DIR"

// CaptureConfig names the diagnostics sources a capture drains. Zero
// fields are skipped.
type CaptureConfig struct {
	// Reason says why ("watchdog:<rule>", "manual", "shutdown").
	Reason string
	// Evidence is the triggering rule's one-liner ("" otherwise).
	Evidence string
	// Trigger, when non-nil, is marshaled into trigger.json — the
	// watchdog's firing rule.
	Trigger *watchdog.Trigger
	// Registries are the metric registries to snapshot (both
	// expositions). Empty captures obs.Default().
	Registries []*obs.Registry
	// Flight, when non-nil, contributes flight.json (both rings).
	Flight *flight.Recorder
	// Profiler, when non-nil, contributes its retained profiles under
	// profiles/.
	Profiler *prof.Profiler
	// Health, when non-nil, contributes health.json (the /readyz doc).
	Health *obs.Health
	// MeshStatus, when non-nil, is marshaled into mesh.json — wire
	// feedmesh's Mesh.Status here.
	MeshStatus func() feedmesh.Status
	// Start, when nonzero, renders the process uptime into the
	// manifest.
	Start time.Time
	// Now injects a clock (tests); nil = time.Now.
	Now func() time.Time
}

// Capture drains every configured source and streams the bundle to w.
func Capture(w io.Writer, cfg CaptureConfig) error {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := now()
	man := Manifest{
		CreatedAt: t.UTC().Format(time.RFC3339Nano),
		Reason:    cfg.Reason,
		Evidence:  cfg.Evidence,
		PID:       os.Getpid(),
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		Revision:  vcsRevision(),
	}
	if host, err := os.Hostname(); err == nil {
		man.Hostname = host
	}
	if !cfg.Start.IsZero() {
		man.Uptime = t.Sub(cfg.Start).Round(time.Second).String()
	}

	var files []File
	add := func(name, note string, render func(io.Writer) error) {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			obs.Logger("bundle").Error("capture member failed", "member", name, "error", err)
			note = "FAILED: " + err.Error()
			buf.Reset()
		}
		files = append(files, File{Name: name, Data: buf.Bytes(), Note: note})
	}

	if cfg.Trigger != nil {
		add(TriggerName, "triggering watchdog rule", func(w io.Writer) error {
			return encodeIndented(w, cfg.Trigger)
		})
	}
	regs := cfg.Registries
	if len(regs) == 0 {
		regs = []*obs.Registry{obs.Default()}
	}
	add(MetricsTextName, "metrics snapshot (Prometheus text)", func(w io.Writer) error {
		return obs.WriteText(w, regs...)
	})
	add(MetricsJSONName, "metrics snapshot (JSON, quantiles precomputed)", func(w io.Writer) error {
		return obs.WriteJSON(w, regs...)
	})
	if cfg.Flight != nil {
		add(FlightName, "flight-recorder dump (all events + kept ring)", func(w io.Writer) error {
			return cfg.Flight.EncodeDump(w, "bundle:"+cfg.Reason)
		})
	}
	if cfg.Health != nil {
		add(HealthName, "health checks (the /readyz document)", func(w io.Writer) error {
			return encodeIndented(w, cfg.Health.Ready())
		})
	}
	if cfg.MeshStatus != nil {
		add(MeshName, "per-feed reputation mesh state", func(w io.Writer) error {
			return encodeIndented(w, cfg.MeshStatus())
		})
	}
	if cfg.Profiler != nil {
		for _, p := range cfg.Profiler.Snapshot() {
			note := fmt.Sprintf("%s profile, taken %s", p.Kind,
				p.TakenAt.UTC().Format(time.RFC3339))
			if p.Duration > 0 {
				note += fmt.Sprintf(" (%s window)", p.Duration.Round(time.Millisecond))
			}
			files = append(files, File{Name: ProfileDir + p.Name(), Data: p.Data, Note: note})
		}
	}
	return Write(w, man, files)
}

// encodeIndented writes v as the two-space-indented JSON the daemon's
// HTTP documents use.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// CaptureToDir captures into dir as an atomically-written file named
// bundle-<stamp>-<reason>.tar.gz and returns its path. The stamp is
// second-resolution UTC; a second capture in the same second for the
// same reason overwrites (rename is atomic either way).
func CaptureToDir(dir string, cfg CaptureConfig) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	name := fmt.Sprintf("bundle-%s-%s.tar.gz",
		now().UTC().Format("20060102T150405Z"), sanitize(cfg.Reason))
	path := filepath.Join(dir, name)
	err := atomicfile.WriteStream(path, func(w io.Writer) error {
		return Capture(w, cfg)
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// Save captures cfg into dir with CaptureToDir and logs where the
// bundle went or why it did not; with dir empty it does nothing. It is
// the one path from a trigger or a crash to a bundle on disk.
func Save(dir string, cfg CaptureConfig) {
	if dir == "" {
		return
	}
	log := obs.Logger("bundle")
	if path, err := CaptureToDir(dir, cfg); err != nil {
		log.Error("diagnostics bundle capture failed", "reason", cfg.Reason, "error", err)
	} else {
		log.Warn("diagnostics bundle captured", "reason", cfg.Reason, "path", path)
	}
}

// crashCaptureWait bounds how long a crash waits for its bundle. A
// panic can leave a lock held that a source then waits on forever (a
// health check, the mesh status, a scrape hook); past the bound the
// process re-panics or exits without the bundle rather than hang where
// no supervisor sees it die.
var crashCaptureWait = 5 * time.Second

// HandleCrash is the crash hook a daemon defers as soon as its flags
// have parsed, with its result error named:
//
//	defer bundle.HandleCrash(dir, cfg, &err)
//
// A panic on that goroutine is recorded as a server/crash event in
// cfg's flight ring, captured into dir as one bundle with reason
// "panic: <value>", and re-raised so the process still dies loudly. A
// non-nil *errp at return is recorded and captured the same way with
// reason "fatal: <error>". cfg is called at crash time, so the bundle
// holds whatever the daemon had wired by then. With dir empty the event
// is recorded but nothing is written. The capture gets crashCaptureWait
// to finish; a source that blocks or panics costs the bundle, never the
// re-panic or the return.
func HandleCrash(dir string, cfg func() CaptureConfig, errp *error) {
	if r := recover(); r != nil {
		crash(dir, cfg(), fmt.Sprintf("panic: %v", r))
		panic(r)
	}
	if *errp != nil {
		crash(dir, cfg(), "fatal: "+(*errp).Error())
	}
}

// crash records the terminal flight event, then captures the bundle
// that carries it on a goroutine it waits on for at most
// crashCaptureWait.
func crash(dir string, cfg CaptureConfig, reason string) {
	if cfg.Flight != nil {
		cfg.Flight.Record(flight.Event{Kind: flight.KindServer, Verdict: "crash",
			Flags: flight.FlagErr, Detail: reason})
	}
	cfg.Reason = reason
	log := obs.Logger("bundle")
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				log.Error("crash bundle capture panicked", "reason", reason, "panic", r)
			}
		}()
		Save(dir, cfg)
	}()
	select {
	case <-done:
	case <-time.After(crashCaptureWait):
		log.Error("crash bundle capture abandoned", "reason", reason, "after", crashCaptureWait)
	}
}

// sanitize maps a reason to a filename fragment: lowercase ASCII
// letters, digits, '-', '_' pass; everything else becomes '-'.
func sanitize(s string) string {
	if s == "" {
		return "manual"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '-'
		}
	}
	const max = 48
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// vcsRevision digs the VCS revision out of the build info ("" when
// built outside a checkout).
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}
