package flight

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

func testClock(start time.Time) func() time.Time {
	t := start
	return func() time.Time { t = t.Add(time.Millisecond); return t }
}

func TestRecordAndSnapshot(t *testing.T) {
	r := New(128)
	r.Clock(testClock(time.Date(2006, 10, 14, 12, 0, 0, 0, time.UTC)))
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindQuery, Name: "bl.test", Verdict: "miss",
			Addr: netaddr.MustParseAddr("10.1.1.9"), Latency: time.Duration(i) * time.Microsecond})
	}
	r.Record(Event{Kind: KindFeedLoad, Name: "/tmp/reports", Verdict: "ok", Value: 4})

	evs := r.Snapshot(Filter{})
	if len(evs) != 11 {
		t.Fatalf("snapshot has %d events, want 11", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (oldest first, dense)", i, ev.Seq, i+1)
		}
		if ev.Unix == 0 {
			t.Errorf("event %d not timestamped", i)
		}
	}
	if got := r.Snapshot(Filter{Kinds: []Kind{KindFeedLoad}}); len(got) != 1 || got[0].Value != 4 {
		t.Errorf("kind filter: got %+v, want the one feed_load event", got)
	}
	if got := r.Snapshot(Filter{MinLatency: 5 * time.Microsecond}); len(got) != 5 {
		t.Errorf("min-latency filter kept %d events, want 5", len(got))
	}
	if got := r.Snapshot(Filter{Max: 3}); len(got) != 3 || got[2].Seq != 11 {
		t.Errorf("max filter: got %d events ending at seq %d, want 3 ending at 11", len(got), got[len(got)-1].Seq)
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	r := New(64) // rounds to exactly 64
	for i := 0; i < 200; i++ {
		r.Record(Event{Kind: KindQuery, Verdict: "miss"})
	}
	evs := r.Snapshot(Filter{})
	if len(evs) != 64 {
		t.Fatalf("wrapped ring holds %d events, want 64", len(evs))
	}
	if evs[0].Seq != 137 || evs[63].Seq != 200 {
		t.Errorf("wrapped ring spans seq %d..%d, want 137..200", evs[0].Seq, evs[63].Seq)
	}
}

// Errors, sheds, panics, and slow outliers must survive in the kept ring
// after a flood of healthy events has lapped the main ring.
func TestKeptRingSurvivesFlood(t *testing.T) {
	r := New(64)
	r.Record(Event{Kind: KindCheckpoint, Verdict: "error", Flags: FlagErr, Name: "ckpt"})
	r.Record(Event{Kind: KindQuery, Verdict: "hit", Flags: FlagHit, Latency: 2 * DefaultSlowThreshold})
	for i := 0; i < 1000; i++ {
		r.Record(Event{Kind: KindQuery, Verdict: "miss", Latency: time.Microsecond})
	}
	if got := r.Snapshot(Filter{Kinds: []Kind{KindCheckpoint}}); len(got) != 0 {
		t.Fatalf("flood failed to lap the main ring (still %d checkpoint events)", len(got))
	}
	kept := r.Snapshot(Filter{Kept: true})
	if len(kept) != 2 {
		t.Fatalf("kept ring has %d events, want 2", len(kept))
	}
	if kept[0].Kind != KindCheckpoint || kept[0].Flags&FlagErr == 0 {
		t.Errorf("kept[0] = %+v, want the checkpoint error", kept[0])
	}
	if kept[1].Flags&FlagSlow == 0 {
		t.Errorf("slow outlier not flagged: %+v", kept[1])
	}
}

// The write path's budget is one allocation per event: the Event that
// escapes into the ring. This is the guarantee the serve-path latency
// budget in internal/dnsbl relies on.
func TestRecordAllocsAtMostOne(t *testing.T) {
	r := New(1024)
	ev := Event{Kind: KindQuery, Name: "bl.test", Verdict: "miss",
		Client: 0x0a010109, Addr: 0x0a010109, Latency: time.Microsecond}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) })
	if allocs > 1 {
		t.Fatalf("Record allocates %.1f times per event, budget is 1", allocs)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fl := Flags(0)
				if i%16 == 0 {
					fl = FlagErr
				}
				r.Record(Event{Kind: KindQuery, Verdict: "miss", Flags: fl})
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, ev := range r.Snapshot(Filter{}) {
			if ev.Seq == 0 || ev.Kind != KindQuery {
				t.Errorf("torn event observed: %+v", ev)
			}
		}
		r.Snapshot(Filter{Kept: true})
	}
	close(stop)
	wg.Wait()
	// Every surviving slot must hold a dense, in-window sequence.
	evs := r.Snapshot(Filter{})
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestHandlerFiltersAndRejects(t *testing.T) {
	r := New(128)
	r.Record(Event{Kind: KindQuery, Verdict: "hit", Flags: FlagHit, Latency: 3 * time.Millisecond,
		Name: "bl.test", Addr: netaddr.MustParseAddr("10.1.1.9")})
	r.Record(Event{Kind: KindQuery, Verdict: "miss", Latency: 10 * time.Microsecond, Name: "bl.test"})
	r.Record(Event{Kind: KindBreaker, Verdict: "open", Flags: FlagErr})

	get := func(url string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/debug/events")
	if code != 200 {
		t.Fatalf("GET /debug/events: %d\n%s", code, body)
	}
	var doc EventsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if doc.Recorded != 3 || len(doc.Events) != 3 {
		t.Fatalf("got %d/%d events, want 3/3", len(doc.Events), doc.Recorded)
	}
	if doc.Events[0].Addr != "10.1.1.9" || doc.Events[0].Latency != "3ms" {
		t.Errorf("wide event lost fields: %+v", doc.Events[0])
	}

	if code, body = get("/debug/events?kind=breaker"); code != 200 || !strings.Contains(body, `"open"`) {
		t.Errorf("kind filter failed: %d\n%s", code, body)
	}
	if code, body = get("/debug/events?min_latency=1ms"); code != 200 || strings.Contains(body, `"miss"`) {
		t.Errorf("min_latency filter failed: %d\n%s", code, body)
	}
	if code, body = get("/debug/events?flags=err"); code != 200 || !strings.Contains(body, "breaker") {
		t.Errorf("flags filter failed: %d\n%s", code, body)
	}
	if code, _ = get("/debug/events?kind=nonsense"); code != 400 {
		t.Errorf("bad kind accepted: %d", code)
	}
	if code, _ = get("/debug/events?min_latency=fast"); code != 400 {
		t.Errorf("bad min_latency accepted: %d", code)
	}
}

func TestParseKindAndFlagsNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("unknown"); ok {
		t.Error("ParseKind accepted 'unknown'")
	}
	f := FlagErr | FlagSlow
	if names := f.Names(); len(names) != 2 || names[0] != "err" || names[1] != "slow" {
		t.Errorf("Flags.Names() = %v", names)
	}
}

func TestAnalyticsKindRoundTripsThroughHandler(t *testing.T) {
	// The analytics scoreboard emits KindAnalytics sweep events; the
	// /debug/events kind= filter must select exactly them, and the JSON
	// kind name must parse back to the same Kind value.
	r := New(128)
	r.Record(Event{Kind: KindQuery, Verdict: "hit"})
	r.Record(Event{Kind: KindAnalytics, Verdict: "sweep", Name: "bl.test", Value: 7})
	r.Record(Event{Kind: KindMesh, Verdict: "round"})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?kind=analytics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET kind=analytics: %d\n%s", rec.Code, rec.Body.String())
	}
	var doc EventsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Events) != 1 {
		t.Fatalf("kind=analytics selected %d events, want 1", len(doc.Events))
	}
	ev := doc.Events[0]
	if ev.Kind != "analytics" || ev.Verdict != "sweep" || ev.Value != 7 {
		t.Fatalf("event = %+v, want analytics/sweep/7", ev)
	}
	k, ok := ParseKind(ev.Kind)
	if !ok || k != KindAnalytics {
		t.Fatalf("ParseKind(%q) = %v, %v; want KindAnalytics", ev.Kind, k, ok)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder records one event of every shape on a fixed clock:
// every field set, a kept error, a slow outlier, and a bare event.
func goldenRecorder() *Recorder {
	r := New(64)
	r.Clock(testClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)))
	r.Record(Event{Kind: KindQuery, Name: "bl.example", Verdict: "hit", Flags: FlagHit,
		Client: netaddr.MustParseAddr("192.0.2.9"), Addr: netaddr.MustParseAddr("10.1.1.9"),
		Latency: 12 * time.Microsecond})
	r.Record(Event{Kind: KindFeedLoad, Name: "/var/feeds", Verdict: "error", Flags: FlagErr,
		Detail: "junk.report: bad header", Value: 3})
	r.Record(Event{Kind: KindQuery, Name: "bl.example", Verdict: "miss", Latency: 80 * time.Millisecond})
	r.Record(Event{Kind: KindServer, Verdict: "start"})
	return r
}

// TestEventsGolden pins the /debug/events body and the dump document
// EncodeDump writes: uncleanctl status and bundle summaries decode
// these bytes.
func TestEventsGolden(t *testing.T) {
	r := goldenRecorder()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	checkGolden(t, "testdata/events.golden", rec.Body.Bytes())

	var buf bytes.Buffer
	if err := r.EncodeDump(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/dump.golden", buf.Bytes())
}

// checkGolden compares got with the golden file at path, rewriting it
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
