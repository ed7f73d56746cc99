package simnet

import (
	"errors"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

func synthWindow(t *testing.T) []netflow.Record {
	t.Helper()
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	return w.SynthesizeFlows(date(2006, 10, 1), date(2006, 10, 2), opts)
}

func TestFlowsWellFormed(t *testing.T) {
	w := getWorld(t)
	records := synthWindow(t)
	if len(records) < 1000 {
		t.Fatalf("only %d flows synthesized", len(records))
	}
	lo := netflow.TimeOf(date(2006, 10, 1))
	hi := netflow.TimeOf(date(2006, 10, 3)) // end of Oct 2 + slack
	for i := range records {
		r := &records[i]
		if err := r.Validate(); err != nil {
			t.Fatalf("flow %d invalid: %v", i, err)
		}
		if r.First < lo || r.First > hi {
			t.Fatalf("flow %d outside window: %v", i, r.First.UTC())
		}
		if !w.Model.InObserved(r.DstAddr) {
			t.Fatalf("flow %d destination %v outside observed network", i, r.DstAddr)
		}
		if w.Model.InObserved(r.SrcAddr) {
			t.Fatalf("flow %d source %v inside observed network", i, r.SrcAddr)
		}
		if i > 0 && records[i].First < records[i-1].First {
			t.Fatal("flows not sorted by start time")
		}
	}
}

func TestFlowsDeterministicPerDay(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 30, CandidateExtras: false}
	// The same day synthesized within two different windows must agree.
	a := w.SynthesizeFlows(date(2006, 10, 2), date(2006, 10, 2), opts)
	b := w.SynthesizeFlows(date(2006, 10, 1), date(2006, 10, 3), opts)
	var bDay2 []netflow.Record
	for _, r := range b {
		if r.First >= netflow.TimeOf(date(2006, 10, 2)) && r.First < netflow.TimeOf(date(2006, 10, 3)) {
			bDay2 = append(bDay2, r)
		}
	}
	if len(a) != len(bDay2) {
		t.Fatalf("day-2 flow counts differ: %d vs %d", len(a), len(bDay2))
	}
	for i := range a {
		if a[i] != bDay2[i] {
			t.Fatalf("flow %d differs between windows", i)
		}
	}
}

func TestScannersAppearInTraffic(t *testing.T) {
	w := getWorld(t)
	_, sources := sourceSets(synthWindow(t))
	scanners := w.ScannersOn(date(2006, 10, 1))
	missing := scanners.Difference(sources)
	if missing.Len() > 0 {
		t.Fatalf("%d of %d ground-truth scanners absent from traffic", missing.Len(), scanners.Len())
	}
}

func TestSpamFlowsTargetSMTP(t *testing.T) {
	w := getWorld(t)
	records := synthWindow(t)
	spammers := w.SpammersOn(date(2006, 10, 1))
	if spammers.IsEmpty() {
		t.Skip("no spammers on test day")
	}
	smtpBySrc := make(map[netaddr.Addr]int)
	for i := range records {
		if records[i].DstPort == 25 {
			smtpBySrc[records[i].SrcAddr]++
		}
	}
	covered := 0
	spammers.Each(func(a netaddr.Addr) bool {
		if smtpBySrc[a] > 0 {
			covered++
		}
		return true
	})
	if covered < spammers.Len() {
		t.Fatalf("only %d/%d spammers emitted SMTP flows", covered, spammers.Len())
	}
}

// sourceSets runs the source-set accumulator over records.
func sourceSets(records []netflow.Record) (payload, tcp ipset.Set) {
	s := NewSourceSets()
	s.Consume(records)
	return s.Sets()
}

func TestPayloadBearingSources(t *testing.T) {
	payload, all := sourceSets(synthWindow(t))
	if payload.IsEmpty() {
		t.Fatal("no payload-bearing sources")
	}
	if !payload.Difference(all).IsEmpty() {
		t.Fatal("payload sources not a subset of TCP sources")
	}
	if payload.Len() >= all.Len() {
		t.Fatal("every source payload-bearing; scanners should not be")
	}
}

func TestCandidateExtrasPopulateBotTestBlocks(t *testing.T) {
	w := getWorld(t)
	_, sources := sourceSets(synthWindow(t))
	inBlocks := sources.WithinBlocks(w.BotTest(), 24)
	// Traffic inside bot-test /24s must exceed the bot-test members that
	// happen to be active: the unknown/innocent populations exist.
	extra := inBlocks.Difference(w.BotTest())
	if extra.Len() < w.BotTest().BlockCount(24)/2 {
		t.Errorf("only %d non-bot-test sources in candidate blocks; unknown population too thin", extra.Len())
	}
}

func TestCandidateExtrasToggle(t *testing.T) {
	w := getWorld(t)
	day := date(2006, 10, 5)
	with := w.SynthesizeFlows(day, day, FlowOptions{BenignSourcesPerDay: 10, CandidateExtras: true})
	without := w.SynthesizeFlows(day, day, FlowOptions{BenignSourcesPerDay: 10, CandidateExtras: false})
	if len(with) <= len(without) {
		t.Errorf("CandidateExtras added no flows: %d vs %d", len(with), len(without))
	}
}

func TestFlowWindowClamping(t *testing.T) {
	w := getWorld(t)
	// A window entirely before the horizon yields nothing.
	records := w.SynthesizeFlows(date(2005, 1, 1), date(2005, 1, 5), FlowOptions{})
	// clampDays pins to day 0 for pre-horizon from; the to side is also
	// pre-horizon so the range must be empty.
	if len(records) != 0 {
		t.Fatalf("pre-horizon window produced %d flows", len(records))
	}
}

func TestFlowsWriteToNetFlowStream(t *testing.T) {
	// The synthesized traffic must round-trip through the V5 codec.
	records := synthWindow(t)
	if len(records) > 2000 {
		records = records[:2000]
	}
	var buf writeCounter
	w := netflow.NewWriter(&buf, date(2006, 10, 1))
	for i := range records {
		if err := w.Write(records[i]); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.n == 0 {
		t.Fatal("nothing written")
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestStreamFlowsMatchesSynthesize checks the streaming day-chunk API
// reproduces the materialized log byte for byte: concatenating the
// chunks in delivery order equals SynthesizeFlows over the same window.
func TestStreamFlowsMatchesSynthesize(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 40, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 5)
	want := w.SynthesizeFlows(from, to, opts)

	var got []netflow.Record
	days := 0
	err := w.StreamFlows(from, to, opts, func(day time.Time, recs []netflow.Record) error {
		if days > 0 && len(recs) > 0 && len(got) > 0 && recs[0].First < got[len(got)-1].First {
			t.Fatalf("chunk for %v delivered out of order", day)
		}
		days++
		got = append(got, recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if days != 5 {
		t.Fatalf("delivered %d day chunks, want 5", days)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d flows, materialized %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("flow %d differs:\nstream %+v\nmemory %+v", i, got[i], want[i])
		}
	}
}

func TestStreamFlowsPropagatesError(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 5, CandidateExtras: false}
	boom := errors.New("boom")
	calls := 0
	err := w.StreamFlows(date(2006, 10, 1), date(2006, 10, 9), opts, func(time.Time, []netflow.Record) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after error, want 2", calls)
	}
}
