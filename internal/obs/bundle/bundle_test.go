package bundle

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/prof"
	"unclean/internal/obs/watchdog"
)

// testManifest is a fully pinned manifest so outputs are byte-stable.
func testManifest() Manifest {
	return Manifest{
		CreatedAt: "2026-08-08T12:00:00Z",
		Reason:    "watchdog:shed",
		Evidence:  "dnsbl_shed_frac_1m=0.4 > 0.2, held 3 tick(s)",
		PID:       1234,
		GoVersion: "go1.22.0",
		Platform:  "linux/amd64",
		Uptime:    "1h0m0s",
	}
}

func testFiles() []File {
	return []File{
		{Name: MetricsTextName, Data: []byte("unclean_up 1\n"), Note: "metrics snapshot"},
		{Name: ProfileDir + "heap-000002.pprof", Data: []byte{0x1f, 0x8b, 0x08, 0x00}, Note: "heap profile"},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testManifest(), testFiles()); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Version != Version || b.Manifest.Reason != "watchdog:shed" {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	if got := string(b.File(MetricsTextName)); got != "unclean_up 1\n" {
		t.Fatalf("metrics member = %q", got)
	}
	if names := b.ProfileNames(); len(names) != 1 || names[0] != ProfileDir+"heap-000002.pprof" {
		t.Fatalf("profile names = %v", names)
	}
	if note := b.Manifest.Files[0].Note; note != "metrics snapshot" {
		t.Fatalf("note = %q", note)
	}
}

// TestManifestGoldenShape pins the exact MANIFEST.json rendering — key
// names, ordering, indentation — so a layout change is a conscious
// Version bump, not an accident a summarizer discovers in the field.
func TestManifestGoldenShape(t *testing.T) {
	files := testFiles()
	var buf bytes.Buffer
	if err := Write(&buf, testManifest(), files); err != nil {
		t.Fatal(err)
	}
	// Pull the raw manifest member back out of the archive.
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	hdr, err := tr.Next()
	if err != nil || hdr.Name != ManifestName {
		t.Fatalf("first member %q err %v, want %s", hdr.Name, err, ManifestName)
	}
	var man bytes.Buffer
	if _, err := man.ReadFrom(tr); err != nil {
		t.Fatal(err)
	}

	golden := fmt.Sprintf(`{
  "version": 1,
  "created_at": "2026-08-08T12:00:00Z",
  "reason": "watchdog:shed",
  "evidence": "dnsbl_shed_frac_1m=0.4 \u003e 0.2, held 3 tick(s)",
  "pid": 1234,
  "go_version": "go1.22.0",
  "platform": "linux/amd64",
  "uptime": "1h0m0s",
  "files": [
    {
      "name": "metrics.prom",
      "size": 13,
      "crc32": %d,
      "note": "metrics snapshot"
    },
    {
      "name": "profiles/heap-000002.pprof",
      "size": 4,
      "crc32": %d,
      "note": "heap profile"
    }
  ]
}
`, crc32.ChecksumIEEE(files[0].Data), crc32.ChecksumIEEE(files[1].Data))
	if got := man.String(); got != golden {
		t.Fatalf("MANIFEST.json drifted from the golden shape:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestWriteRejectsDuplicateNames(t *testing.T) {
	var buf bytes.Buffer
	dup := []File{{Name: "x", Data: []byte("a")}, {Name: "x", Data: []byte("b")}}
	if err := Write(&buf, testManifest(), dup); err == nil {
		t.Fatal("duplicate member names accepted")
	}
	if err := Write(&buf, testManifest(), []File{{Name: ""}}); err == nil {
		t.Fatal("empty member name accepted")
	}
}

func TestReadRejectsCorruptBundle(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testManifest(), testFiles()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A flipped byte in the compressed stream.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bit-flipped bundle read back cleanly")
	}

	// A truncated download.
	if _, err := Read(bytes.NewReader(good[:len(good)-16])); err == nil {
		t.Fatal("truncated bundle read back cleanly")
	}

	// Garbage that is not gzip at all.
	if _, err := Read(strings.NewReader("not a bundle")); err == nil {
		t.Fatal("non-gzip input read back cleanly")
	}
}

// TestReadRejectsTamperedMember rebuilds a valid archive with one
// member's bytes altered but the manifest left stale: the per-member
// CRC must catch it even though gzip and tar are both intact.
func TestReadRejectsTamperedMember(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testManifest(), testFiles()); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)

	var out bytes.Buffer
	ogz := gzip.NewWriter(&out)
	otw := tar.NewWriter(ogz)
	for {
		hdr, err := tr.Next()
		if err != nil {
			break
		}
		var data bytes.Buffer
		if _, err := data.ReadFrom(tr); err != nil {
			t.Fatal(err)
		}
		raw := data.Bytes()
		if hdr.Name == MetricsTextName {
			raw = []byte("unclean_up 0\n") // same length, different bytes
		}
		hdr.Size = int64(len(raw))
		if err := otw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := otw.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	otw.Close()
	ogz.Close()

	_, err = Read(&out)
	if err == nil {
		t.Fatal("tampered member read back cleanly")
	}
	if !strings.Contains(err.Error(), MetricsTextName) || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("error %q does not name the broken member's CRC", err)
	}
}

// entry is one raw tar member for hand-built archives. A zero typeflag
// is a regular file; a nonzero size is what the header claims in place
// of len(data).
type entry struct {
	name     string
	data     []byte
	typeflag byte
	size     int64
}

// rawArchive builds gzip(tar(entries)) exactly as given, with none of
// Write's bookkeeping, so tests can forge what Write never would.
func rawArchive(t *testing.T, entries ...entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, e := range entries {
		hdr := &tar.Header{Name: e.name, Typeflag: e.typeflag, Mode: 0o644, Size: int64(len(e.data))}
		if e.size != 0 {
			hdr.Size = e.size
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(e.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// manifestEntry renders man as the MANIFEST.json member, Version
// included as given.
func manifestEntry(t *testing.T, man Manifest) entry {
	t.Helper()
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return entry{name: ManifestName, data: data}
}

func TestReadRejectsWrongLayout(t *testing.T) {
	trigger := []byte(`{"rule":"forged","evidence":"never checked"}`)
	listed := func(es ...entry) Manifest {
		man := Manifest{Version: Version}
		for _, e := range es {
			man.Files = append(man.Files, FileEntry{Name: e.name, Size: int64(len(e.data)), CRC32: crc32.ChecksumIEEE(e.data)})
		}
		return man
	}
	tr := entry{name: TriggerName, data: trigger}
	for _, tc := range []struct {
		name    string
		archive []byte
		want    string
	}{
		{"manifest not first", rawArchive(t, entry{name: "stray.txt", data: []byte("hi")}), ManifestName},
		{"future version", rawArchive(t, manifestEntry(t, Manifest{Version: Version + 1})), "version"},
		{"no version", rawArchive(t, manifestEntry(t, Manifest{})), "version"},
		{"listed but absent", rawArchive(t, manifestEntry(t, Manifest{Version: Version,
			Files: []FileEntry{{Name: "gone.json", Size: 1}}})), "gone.json"},
		{"unlisted members", rawArchive(t, manifestEntry(t, listed()), tr,
			entry{name: ProfileDir + "cpu-forged.pb.gz", data: []byte{0x1f, 0x8b}}), TriggerName},
		{"duplicate member", rawArchive(t, manifestEntry(t, listed(tr)), tr, tr), "twice"},
		{"listed twice", rawArchive(t, manifestEntry(t, listed(tr, tr)), tr), "twice"},
		{"manifest lists itself", rawArchive(t, manifestEntry(t, listed(entry{name: ManifestName}))), ManifestName},
		{"size mismatch", rawArchive(t, manifestEntry(t, listed(entry{name: TriggerName, data: trigger[1:]})), tr), "size"},
		// A directory header claiming three bytes the tar reader never yields.
		{"not a regular file", rawArchive(t, manifestEntry(t, Manifest{Version: Version,
			Files: []FileEntry{{Name: "x/", Size: 3}}}), entry{name: "x/", typeflag: tar.TypeDir, size: 3}), "regular"},
		{"sizes over the cap", rawArchive(t, manifestEntry(t, Manifest{Version: Version,
			Files: []FileEntry{{Name: "a", Size: maxMemberBytes}, {Name: "b", Size: 1}}})), "cap"},
		{"oversized manifest", rawArchive(t, entry{name: ManifestName, data: make([]byte, maxManifestBytes+1)}), "cap"},
	} {
		_, err := Read(bytes.NewReader(tc.archive))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// countingReader counts the bytes Read consumes.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// A tar header claiming far more than the manifest lists is refused
// before its bytes are read: a small gzip of zeros must not be
// inflated into a buffer of the size the header claims.
func TestReadChecksSizeBeforeReading(t *testing.T) {
	const claimed = 64 << 20
	man, err := json.Marshal(Manifest{Version: Version,
		Files: []FileEntry{{Name: MetricsTextName, Size: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	tw := tar.NewWriter(gz)
	tw.WriteHeader(&tar.Header{Name: ManifestName, Mode: 0o644, Size: int64(len(man))})
	tw.Write(man)
	tw.WriteHeader(&tar.Header{Name: MetricsTextName, Mode: 0o644, Size: claimed})
	zeros := make([]byte, 1<<20)
	for i := 0; i < claimed/len(zeros); i++ {
		tw.Write(zeros)
	}
	tw.Close()
	gz.Close()

	in := &countingReader{r: bytes.NewReader(buf.Bytes())}
	if _, err := Read(in); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("forged size got %v, want a size error", err)
	}
	if in.n > buf.Len()/4 {
		t.Fatalf("Read consumed %d of %d compressed bytes before refusing the forged size", in.n, buf.Len())
	}
}

// TestCaptureToDirAndSummarize is the full circle: capture from live
// diagnostics sources, write atomically, open with verification, and
// render the one-screen triage view.
func TestCaptureToDirAndSummarize(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("unclean_test_hits_total", "test counter").Add(7)

	fr := flight.New(64)
	fr.Record(flight.Event{Kind: flight.KindWatchdog, Name: "shed", Verdict: "trigger", Detail: "evidence"})
	fr.Record(flight.Event{Kind: flight.KindCheckpoint, Verdict: "error", Flags: flight.FlagErr, Detail: "disk gone"})

	p := prof.New(prof.Config{Interval: time.Second, CPUDuration: -1, Registry: obs.NewRegistry()})
	p.CollectOnce(context.Background())

	h := obs.NewHealth()
	h.AddCheck("zone", func() (bool, string) { return true, "loaded" })
	h.SetInfo("addr", "127.0.0.1:5353")

	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	path, err := CaptureToDir(dir, CaptureConfig{
		Reason:     "watchdog:shed",
		Evidence:   "dnsbl_shed_frac_1m=0.4 > 0.2",
		Trigger:    &watchdog.Trigger{Rule: "shed", Value: 0.4},
		Registries: []*obs.Registry{reg},
		Flight:     fr,
		Profiler:   p,
		Health:     h,
		MeshStatus: func() feedmesh.Status { return feedmesh.Status{Round: 3} },
		Start:      now.Add(-90 * time.Minute),
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "bundle-20260808T120000Z-watchdog-shed.tar.gz"; !strings.HasSuffix(path, want) {
		t.Fatalf("capture path %q, want suffix %q", path, want)
	}

	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "watchdog:shed" || b.Manifest.Uptime != "1h30m0s" {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	for _, name := range []string{TriggerName, MetricsTextName, MetricsJSONName, FlightName, HealthName, MeshName} {
		if b.File(name) == nil {
			t.Fatalf("capture missing member %s", name)
		}
	}
	if !strings.Contains(string(b.File(MetricsTextName)), "unclean_test_hits_total 7") {
		t.Fatalf("metrics member lacks the counter:\n%s", b.File(MetricsTextName))
	}
	if len(b.ProfileNames()) == 0 {
		t.Fatal("capture carried no profiles")
	}
	// flight.json carries both rings back whole.
	var dump flight.EventsDoc
	if err := json.Unmarshal(b.File(FlightName), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recorded != 2 || len(dump.Events) != 2 || dump.Reason != "bundle:watchdog:shed" {
		t.Fatalf("flight.json lost events: %+v", dump)
	}
	if len(dump.Kept) != 1 || dump.Kept[0].Detail != "disk gone" {
		t.Fatalf("flight.json lost the kept ring: %+v", dump.Kept)
	}

	var sum strings.Builder
	if err := Summarize(&sum, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"watchdog:shed", "READY", "uptime=1h30m0s"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary lacks %q:\n%s", want, sum.String())
		}
	}
}

// TestCaptureDegradesPerMember: a failing source becomes an empty
// member with a FAILED note, never a failed capture.
func TestCaptureDegradesPerMember(t *testing.T) {
	var buf bytes.Buffer
	err := Capture(&buf, CaptureConfig{
		Reason:     "manual",
		Registries: []*obs.Registry{obs.NewRegistry()},
		MeshStatus: func() feedmesh.Status { return feedmesh.Status{Feeds: []feedmesh.FeedStatus{{Quality: math.NaN()}}} }, // unmarshalable
		Now:        func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatalf("capture failed outright on a bad source: %v", err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var note string
	for _, fe := range b.Manifest.Files {
		if fe.Name == MeshName {
			note = fe.Note
		}
	}
	if !strings.HasPrefix(note, "FAILED: ") {
		t.Fatalf("mesh member note = %q, want a FAILED marker", note)
	}
	if len(b.File(MeshName)) != 0 {
		t.Fatal("failed member carried partial bytes")
	}
}

// onlyBundle opens the single bundle in dir.
func onlyBundle(t *testing.T, dir string) *Bundle {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "bundle-*.tar.gz"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("bundles in %s = %v (%v), want exactly one", dir, paths, err)
	}
	b, err := Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lastEvent decodes a bundle's flight.json and returns its newest event.
func lastEvent(t *testing.T, b *Bundle) flight.WireEvent {
	t.Helper()
	var doc flight.EventsDoc
	if err := json.Unmarshal(b.File(FlightName), &doc); err != nil || len(doc.Events) == 0 {
		t.Fatalf("flight.json unreadable or empty: %v", err)
	}
	return doc.Events[len(doc.Events)-1]
}

// The crash hook leaves one bundle per panic or fatal error, ending its
// flight ring with the server/crash event, and still re-panics or
// returns the error.
func TestHandleCrashCapturesAndRepanics(t *testing.T) {
	fr := flight.New(64)
	cfg := func() CaptureConfig {
		return CaptureConfig{Registries: []*obs.Registry{obs.NewRegistry()}, Flight: fr}
	}
	crashWith := func(dir string, v any) (recovered any) {
		defer func() { recovered = recover() }()
		var err error
		defer HandleCrash(dir, cfg, &err)
		panic(v)
	}

	dir := t.TempDir()
	if r := crashWith(dir, "poisoned packet"); r != "poisoned packet" {
		t.Fatalf("HandleCrash re-panicked with %v, want the original value", r)
	}
	b := onlyBundle(t, dir)
	if b.Manifest.Reason != "panic: poisoned packet" {
		t.Errorf("panic bundle reason = %q", b.Manifest.Reason)
	}
	if ev := lastEvent(t, b); ev.Kind != "server" || ev.Verdict != "crash" || ev.Detail != "panic: poisoned packet" {
		t.Errorf("final flight event = %+v, want server/crash", ev)
	}

	dir = t.TempDir()
	err := func() (err error) {
		defer HandleCrash(dir, cfg, &err)
		return errors.New("socket died")
	}()
	if err == nil || err.Error() != "socket died" {
		t.Fatalf("HandleCrash changed the returned error to %v", err)
	}
	if b := onlyBundle(t, dir); b.Manifest.Reason != "fatal: socket died" {
		t.Errorf("fatal bundle reason = %q", b.Manifest.Reason)
	}

	// No directory: nothing is written, and the panic still propagates.
	if r := crashWith("", "no dir"); r != "no dir" {
		t.Fatalf("HandleCrash without a dir re-panicked with %v", r)
	}
	dir = t.TempDir()
	func() {
		var err error
		defer HandleCrash(dir, cfg, &err)
	}()
	if paths, _ := filepath.Glob(filepath.Join(dir, "*")); len(paths) != 0 {
		t.Errorf("a clean return left %v", paths)
	}
}

// A panic can leave a lock held that a capture source then waits on
// forever, or state that makes a source panic. Either way the hook must
// still re-panic with the original value, or return the error, once
// crashCaptureWait has passed, leaving no bundle rather than a hung
// process.
func TestHandleCrashSurvivesBrokenSource(t *testing.T) {
	defer func(w time.Duration) { crashCaptureWait = w }(crashCaptureWait)
	crashCaptureWait = 50 * time.Millisecond
	// Never closed, like the lock a panic left held: the abandoned
	// captures stay parked for the rest of the test binary.
	locked := make(chan struct{})
	health := obs.NewHealth()
	health.AddCheck("feed_mesh", func() (bool, string) { <-locked; return true, "" })
	sources := map[string]CaptureConfig{
		"blocked health": {Health: health},
		"blocked mesh":   {MeshStatus: func() feedmesh.Status { <-locked; return feedmesh.Status{} }},
		"panicking mesh": {MeshStatus: func() feedmesh.Status { panic("mesh state torn") }},
	}
	within := func(name string, f func() any, want any) {
		t.Helper()
		got := make(chan any, 1)
		go func() { got <- f() }()
		select {
		case r := <-got:
			if r != want {
				t.Errorf("%s: hook ended with %v, want %v", name, r, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: hook still waiting on its capture after 10s", name)
		}
	}

	dir := t.TempDir()
	for name, c := range sources {
		c.Registries = []*obs.Registry{obs.NewRegistry()}
		cfg := func() CaptureConfig { return c }
		within(name+", panic", func() (recovered any) {
			defer func() { recovered = recover() }()
			var err error
			defer HandleCrash(dir, cfg, &err)
			panic("mesh lock held")
		}, "mesh lock held")
		within(name+", fatal", func() any {
			err := func() (err error) {
				defer HandleCrash(dir, cfg, &err)
				return errors.New("socket died")
			}()
			return err.Error()
		}, "socket died")
	}
	if paths, _ := filepath.Glob(filepath.Join(dir, "bundle-*.tar.gz")); len(paths) != 0 {
		t.Errorf("abandoned captures left bundles %v", paths)
	}
}
