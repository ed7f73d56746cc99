package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/obs"
	"unclean/internal/report"
	"unclean/internal/scandetect"
	"unclean/internal/simnet"
	"unclean/internal/spamdetect"
)

// TestBuildFoldMatchesWholeLog holds Build's fold to the whole-log
// functions it replaced, for both golden seeds on one worker and on
// four: the flow log equals SynthesizeFlows over the window byte for
// byte, at its exact size, and the source sets and the observed scan and
// spam reports equal the accumulators run over that whole log.
func TestBuildFoldMatchesWholeLog(t *testing.T) {
	for _, seed := range []uint64{20061001, 424242} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/GOMAXPROCS=%d", seed, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := Quick()
				cfg.Seed = seed
				ds, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := ds.World.SynthesizeFlows(UncleanFrom, UncleanTo, windowOptions(cfg.BenignPerDay))
				if len(ds.Flows) != len(want) || ds.FlowCount != len(want) {
					t.Fatalf("Build kept %d flows and counted %d, SynthesizeFlows %d", len(ds.Flows), ds.FlowCount, len(want))
				}
				if cap(ds.Flows) != len(ds.Flows) {
					t.Errorf("Build's log of %d flows has capacity %d", len(ds.Flows), cap(ds.Flows))
				}
				for i := range want {
					if ds.Flows[i] != want[i] {
						t.Fatalf("flow %d: Build %+v, SynthesizeFlows %+v", i, ds.Flows[i], want[i])
					}
				}

				sources := simnet.NewSourceSets()
				sources.Consume(want)
				payload, tcp := sources.Sets()
				if !ds.PayloadSources.Equal(payload) || !ds.TCPSources.Equal(tcp) {
					t.Errorf("source sets %v %v, whole log %v %v", ds.PayloadSources, ds.TCPSources, payload, tcp)
				}
				scan, err := scandetect.NewThreshold(scandetect.DefaultThresholdConfig())
				if err != nil {
					t.Fatal(err)
				}
				scan.Consume(want)
				spam, err := spamdetect.NewDetector(spamdetect.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				spam.Consume(want)
				observed := ds.World.Model.Observed()
				for tag, set := range map[string]ipset.Set{"scan": scan.Scanners(), "spam": spam.Spammers()} {
					if set.IsEmpty() {
						t.Errorf("whole-log %s report is empty", tag)
					}
					whole := (&report.Report{Addrs: set}).Sanitize(observed).Addrs
					if got := ds.Report(tag).Addrs; !got.Equal(whole) {
						t.Errorf("%s report %v, whole log %v", tag, got, whole)
					}
				}
			})
		}
	}
}

// TestSweepMatchesStream holds the folded sweep to the ordered stream it
// replaced in uncleanctl bench and block: for both golden seeds, on one
// worker and on four, Sweep's results hash the same as StreamFlows into
// one SweepEvaluator, with and without a spill budget.
func TestSweepMatchesStream(t *testing.T) {
	for _, seed := range []uint64{20061001, 424242} {
		cfg := Quick()
		cfg.Seed = seed
		wcfg := simnet.DefaultConfig(cfg.Scale)
		wcfg.Seed = seed
		world, err := simnet.NewWorld(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := blocklist.SweepSet(world.BotTest(), 24, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 256 << 10} {
			opts := windowOptions(cfg.BenignPerDay)
			opts.SpillBudget, opts.SpillDir = budget, t.TempDir()
			sv := blocklist.NewSweepEvaluator(ms)
			flows := 0
			if err := world.StreamFlows(UncleanFrom, UncleanTo, opts, func(_ time.Time, recs []netflow.Record) error {
				flows += len(recs)
				sv.Consume(recs)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := sweepDigest(sv.Results())
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("seed=%d/budget=%d/GOMAXPROCS=%d", seed, budget, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got, n := Sweep(world, cfg.BenignPerDay, ms)
					if n != flows || got.Sources() != sv.Sources() {
						t.Fatalf("Sweep saw %d flows from %d sources, the stream %d from %d", n, got.Sources(), flows, sv.Sources())
					}
					if d := sweepDigest(got.Results()); d != want {
						t.Fatalf("Sweep digest %s, stream %s", d, want)
					}
				})
			}
		}
	}
}

// sweepDigest is the benchmark's hash of a sweep's results: every count
// per prefix length and every blocked source address.
func sweepDigest(evals []blocklist.Eval) string {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	var b [8]byte
	put := func(v int) {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		bw.Write(b[:])
	}
	for _, e := range evals {
		put(e.FlowsBlocked)
		put(e.FlowsPassed)
		put(e.PayloadBlocked)
		put(e.BlockedSources.Len())
		put(e.PassedSources.Len())
		e.BlockedSources.Each(func(a netaddr.Addr) bool {
			binary.BigEndian.PutUint32(b[:4], uint32(a))
			bw.Write(b[:4])
			return true
		})
	}
	bw.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildSpansCoverBuild holds Build's stage table to its wall time:
// the build/* spans sum to at least 98% of one Build at Quick() scale,
// so the table says where Build went.
func TestBuildSpansCoverBuild(t *testing.T) {
	tr := obs.DefaultTrace()
	tr.Reset()
	start := time.Now()
	if _, err := Build(Quick()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var spans time.Duration
	for _, st := range tr.Stages() {
		if strings.HasPrefix(st.Name, "build/") {
			spans += st.Total
		}
	}
	if frac := float64(spans) / float64(wall); frac < 0.98 {
		t.Fatalf("build/* spans sum to %v of Build's %v (%.1f%%), want at least 98%%:\n%s", spans, wall, 100*frac, tr.Table())
	}
}
