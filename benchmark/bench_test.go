package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/netaddr"
)

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json's metric lists to
// the ones the benchmark emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, c := range []struct {
		kind string
		got  []benchMetric
		want []metricDef
	}{{"end_to_end", b.EndToEnd, e2eDefs}, {"per_layer", b.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s lists %d metrics, the benchmark emits %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] is %s (%s), the benchmark emits %s (%s)", c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %s at %d", names, w.name, i)
		}
	}
}

// TestCheckAnswerFlagsCorruption takes real answers from a dnsbl server,
// checks that they pass, then corrupts them by hand.
func TestCheckAnswerFlagsCorruption(t *testing.T) {
	listed, unlisted := netaddr.MustParseAddr("10.1.2.3"), netaddr.MustParseAddr("10.9.9.9")
	list := &blocklist.Trie{}
	list.Insert(netaddr.MustParseBlock("10.1.2.0/24"), "bot")
	srv, err := dnsbl.NewServer(zone, list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := dnsbl.ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, dnsbl.ShardConfig{}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	ask := func(a netaddr.Addr) (q, resp []byte) {
		c, err := net.Dial("udp", conns[0].LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		q = appendQuery(nil, 0x1234, a, zoneWire(zone))
		if _, err := c.Write(q); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1500)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return q, buf[:n]
	}
	const bot = 3 // 127.0.0.3
	lq, lresp := ask(listed)
	uq, uresp := ask(unlisted)
	if err := checkAnswer(lq, lresp, bot); err != nil {
		t.Fatalf("listed answer rejected: %v", err)
	}
	if err := checkAnswer(uq, uresp, 0); err != nil {
		t.Fatalf("unlisted answer rejected: %v", err)
	}
	if checkAnswer(lq, lresp, 5) == nil || checkAnswer(uq, uresp, bot) == nil {
		t.Error("answer accepted for the wrong verdict")
	}

	corrupt := map[string]func(b []byte) []byte{
		"ID":            func(b []byte) []byte { b[1]++; return b },
		"QR bit":        func(b []byte) []byte { b[2] &^= 0x80; return b },
		"TC bit":        func(b []byte) []byte { b[2] |= 0x02; return b },
		"rcode":         func(b []byte) []byte { b[3] ^= 0x03; return b },
		"question name": func(b []byte) []byte { b[13]++; return b },
		"answer count":  func(b []byte) []byte { b[7] = 2; return b },
		"record type":   func(b []byte) []byte { b[len(b)-13] = 16; return b },
		"return code":   func(b []byte) []byte { b[len(b)-1] = 5; return b },
		"truncated":     func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
	}
	for name, f := range corrupt {
		if err := checkAnswer(lq, f(append([]byte(nil), lresp...)), bot); err == nil {
			t.Errorf("listed answer with a corrupted %s accepted", name)
		}
	}
	if err := checkAnswer(uq, append(append([]byte(nil), uresp...), lresp[len(lq):]...), 0); err == nil {
		t.Error("NXDOMAIN answer carrying an A record accepted")
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size (scale
// 1/500, one second) through the built binary and checks that every
// metric of BENCHMARK.json is printed by name with its unit, and that
// the result line holds the right metric set.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bench, daemon := filepath.Join(dir, "bench"), filepath.Join(dir, "dnsbld")
	for _, b := range [][2]string{{bench, "."}, {daemon, "unclean/cmd/dnsbld"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	b := readBenchmarkJSON(t)
	run := func(t *testing.T, workload, trace string) []string {
		cmd := exec.Command(bench, "-workload", workload, "-scale", "500", "-seconds", "1",
			"-trace", trace, "-dnsbld", daemon, "-work", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", workload, err, out)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}
	checkResult := func(t *testing.T, line string, want []benchMetric) {
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("result: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("result: %s is %+v, want unit %s", m.Name, got, m.Unit)
			}
		}
	}
	// The runs are independent processes, so they overlap.
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			lines := run(t, w.name, "1")
			text := strings.Join(lines, "\n")
			for _, m := range append(append([]benchMetric{}, b.EndToEnd...), b.PerLayer...) {
				re := regexp.MustCompile(`(?m)^(e2e|layer) +` + regexp.QuoteMeta(m.Name) + ` +\S+ +` + regexp.QuoteMeta(m.Unit) + `$`)
				if !re.MatchString(text) {
					t.Errorf("%s (%s) not printed", m.Name, m.Unit)
				}
			}
			checkResult(t, lines[len(lines)-1], b.PerLayer)
		})
	}
	t.Run("untraced", func(t *testing.T) {
		t.Parallel()
		lines := run(t, "paper-pipeline", "0")
		checkResult(t, lines[len(lines)-1], b.EndToEnd)
	})
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) (b struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}
