package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

func TestHealthReadyAggregation(t *testing.T) {
	h := NewHealth()
	h.SetInfo("zone", "bl.test.example")

	// No checks: ready by default.
	if !h.Ready().Ready {
		t.Fatal("empty health set not ready")
	}

	ok := true
	h.AddCheck("breaker", func() (bool, string) {
		if ok {
			return true, "closed"
		}
		return false, "open"
	})
	h.AddCheck("always", func() (bool, string) { return true, "fine" })

	doc := h.Ready()
	if !doc.Ready {
		t.Fatalf("all-passing checks reported not ready: %+v", doc.Checks)
	}
	if doc.Info["zone"] != "bl.test.example" {
		t.Errorf("info lost: %+v", doc.Info)
	}

	ok = false
	doc = h.Ready()
	if doc.Ready {
		t.Fatal("failing check did not flip readiness")
	}
	if r := doc.Checks["breaker"]; r.OK || r.Detail != "open" {
		t.Errorf("breaker result = %+v, want failing with detail", r)
	}
	if r := doc.Checks["always"]; !r.OK {
		t.Errorf("unrelated check dragged down: %+v", r)
	}
}

func TestHealthHandlers(t *testing.T) {
	h := NewHealth()
	h.SetInfo("udp_addr", "127.0.0.1:5354")
	fail := false
	h.AddCheck("feed", func() (bool, string) {
		if fail {
			return false, "stale"
		}
		return true, "fresh"
	})

	rec := httptest.NewRecorder()
	h.LiveHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	decode := func(code int, body []byte) (doc ReadyDoc) {
		t.Helper()
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/readyz (%d) not JSON: %v\n%s", code, err, body)
		}
		return doc
	}

	rec = httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	doc := decode(rec.Code, rec.Body.Bytes())
	if rec.Code != 200 || !doc.Ready {
		t.Fatalf("ready /readyz = %d ready=%v", rec.Code, doc.Ready)
	}
	if doc.Info["udp_addr"] != "127.0.0.1:5354" {
		t.Errorf("readyz info missing udp_addr: %+v", doc.Info)
	}

	fail = true
	rec = httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	doc = decode(rec.Code, rec.Body.Bytes())
	if rec.Code != 503 || doc.Ready {
		t.Fatalf("failing /readyz = %d ready=%v, want 503 not-ready", rec.Code, doc.Ready)
	}
	if c := doc.Checks["feed"]; c.OK || c.Detail != "stale" {
		t.Errorf("failing check rendered as %+v", c)
	}
}

func TestParseLevelOK(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"debug", true}, {"INFO", true}, {"warn", true}, {"Error", true},
		{"", true}, {"verbose", false}, {"2", false},
	} {
		if _, ok := ParseLevel(tc.in); ok != tc.ok {
			t.Errorf("ParseLevel(%q) ok = %v, want %v", tc.in, ok, tc.ok)
		}
	}
}

// TestReadyzGolden pins the /readyz body: uncleanctl status and bundle
// summaries decode these bytes.
func TestReadyzGolden(t *testing.T) {
	h := NewHealth()
	h.SetInfo("zone", "bl.example")
	h.SetInfo("udp_addr", "127.0.0.1:5354")
	h.AddCheck("shed", func() (bool, string) { return true, "shed rate 0.00 over the last minute" })
	h.AddCheck("feed_breaker", func() (bool, string) { return false, "feed circuit open; serving last-good list" })

	rec := httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz with a failing check = %d, want 503", rec.Code)
	}
	checkGolden(t, "testdata/readyz.golden", rec.Body.Bytes())
}
