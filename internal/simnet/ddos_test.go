package simnet

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netflow"
)

func TestCampaignsScheduled(t *testing.T) {
	w := getWorld(t)
	campaigns := w.Campaigns()
	if len(campaigns) < w.Days()/12 {
		t.Fatalf("only %d campaigns over %d days", len(campaigns), w.Days())
	}
	for i, c := range campaigns {
		if c.Day < 0 || c.Day >= w.Days() {
			t.Fatalf("campaign %d day %d out of horizon", i, c.Day)
		}
		if !w.Model.InObserved(c.Target) {
			t.Fatalf("campaign %d target %v outside observed network", i, c.Target)
		}
		if i > 0 && c.Day < campaigns[i-1].Day {
			t.Fatal("campaigns not day-ordered")
		}
	}
	// Returned slice is a copy.
	campaigns[0].Day = -99
	if w.Campaigns()[0].Day == -99 {
		t.Fatal("Campaigns returns shared storage")
	}
}

func TestCampaignsBetween(t *testing.T) {
	w := getWorld(t)
	all := w.Campaigns()
	window := w.CampaignsBetween(w.Cfg.Start, w.Cfg.End)
	if len(window) != len(all) {
		t.Fatalf("full-horizon window returned %d of %d", len(window), len(all))
	}
	if got := w.CampaignsBetween(date(2007, 1, 1), date(2007, 2, 1)); len(got) != 0 {
		t.Fatal("out-of-horizon window returned campaigns")
	}
}

func TestDDoSParticipantsAreBots(t *testing.T) {
	w := getWorld(t)
	checked := 0
	for _, c := range w.Campaigns() {
		participants := w.DDoSParticipants(c)
		if participants.IsEmpty() {
			continue
		}
		day := w.Date(c.Day)
		bots := w.BotsActive(day, day)
		if !participants.Difference(bots).IsEmpty() {
			t.Fatalf("campaign day %d: participants not a subset of active bots", c.Day)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d campaigns had participants", checked)
	}
	// Out-of-range campaign yields nothing.
	if got := w.DDoSParticipants(Campaign{Day: -1}); !got.IsEmpty() {
		t.Fatal("invalid campaign returned participants")
	}
}

func TestDDoSFloodDetectableInTraffic(t *testing.T) {
	w := getWorld(t)
	// Find an October campaign and synthesize its day.
	var target Campaign
	found := false
	for _, c := range w.CampaignsBetween(date(2006, 10, 1), date(2006, 10, 14)) {
		if w.DDoSParticipants(c).Len() >= 40 {
			target = c
			found = true
			break
		}
	}
	if !found {
		t.Skip("no October campaign with enough participants at this scale")
	}
	day := w.Date(target.Day)
	b := ipset.NewBuilder(0)
	for _, r := range w.SynthesizeFlows(day, day, FlowOptions{BenignSourcesPerDay: 40}) {
		if r.DstAddr == target.Target && r.DstPort == target.TargetPort && r.TCPFlags == netflow.FlagSYN {
			b.Add(r.SrcAddr)
		}
	}
	flooders := b.Build()
	truth := w.DDoSParticipants(target)
	// The SYN flood at the victim comes from the participants, all of them
	// and no one else.
	if !flooders.Equal(truth) {
		t.Fatalf("SYN sources at %v: %d, %d of them not participants; %d participants",
			target.Target, flooders.Len(), flooders.Difference(truth).Len(), truth.Len())
	}
	// And participants cluster spatially, like every bot population.
	if c16 := truth.BlockCount(16); c16 >= truth.Len() {
		t.Errorf("participants show no /16 clustering: %d blocks for %d sources", c16, truth.Len())
	}
}
