package simnet

import (
	"sort"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// The paper's framing (after Mirkovic et al.) splits botnet DDoS into an
// acquisition phase and a use phase. The epidemic is the acquisition
// phase; campaigns are the use phase: on a campaign day, the bots tasked
// with DDoS flood one victim in the observed network with SYN traffic.

// Campaign is one coordinated DDoS event.
type Campaign struct {
	// Day is the horizon day index of the attack.
	Day int
	// Target is the victim service inside the observed network.
	Target netaddr.Addr
	// TargetPort is the flooded port.
	TargetPort uint16
}

// kindDDoS salts the per-day activity coin for flood participation.
const kindDDoS = 3

// epDDoS marks an episode tasked with DDoS duty.
const epDDoS = 1 << 4

// generateCampaigns schedules roughly one campaign per ten days against
// rotating victims.
func (w *World) generateCampaigns(rng *stats.RNG) {
	count := w.days / 10
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		w.campaigns = append(w.campaigns, Campaign{
			Day:        rng.Intn(w.days),
			Target:     w.webServer(rng.Intn(256)),
			TargetPort: 80,
		})
	}
	sort.Slice(w.campaigns, func(i, j int) bool { return w.campaigns[i].Day < w.campaigns[j].Day })
}

// Campaigns returns the scheduled DDoS campaigns in day order.
func (w *World) Campaigns() []Campaign {
	out := make([]Campaign, len(w.campaigns))
	copy(out, w.campaigns)
	return out
}

// CampaignsBetween returns campaigns whose day falls in [from, to].
func (w *World) CampaignsBetween(from, to time.Time) []Campaign {
	lo, hi := w.clampDays(from, to)
	var out []Campaign
	for _, c := range w.campaigns {
		if c.Day >= lo && c.Day <= hi {
			out = append(out, c)
		}
	}
	return out
}

// DDoSParticipants returns the ground-truth set of bots flooding during
// the campaign: episodes tasked with DDoS, alive on the campaign day,
// whose daily activity coin fires.
func (w *World) DDoSParticipants(c Campaign) ipset.Set {
	if c.Day < 0 || c.Day >= w.days {
		return ipset.Set{}
	}
	b := ipset.NewBuilder(0)
	for _, epIdx := range w.episodesByDay[c.Day] {
		ep := &w.episodes[epIdx]
		if ep.flags&epDDoS == 0 {
			continue
		}
		if w.activeOn(epIdx, ep, c.Day, kindDDoS) {
			b.Add(w.addrOf(ep))
		}
	}
	return b.Build()
}

// ddosFlows emits one participant's share of the flood: a burst of short
// SYN flows against the victim within the attack hour. NetFlow collapses
// retransmitted SYNs into small per-source flows; the volume signature is
// the source count, not per-source bytes.
func (w *World) ddosFlows(rng *stats.RNG, day netflow.Time, src netaddr.Addr, c Campaign, out []netflow.Record) []netflow.Record {
	flows := 12 + rng.Intn(24)
	hour := time.Duration(10+rng.Intn(8)) * time.Hour // campaigns hit working hours
	for i := 0; i < flows; i++ {
		start := at(day, hour+time.Duration(rng.Intn(3600))*time.Second)
		out = append(out, netflow.Record{
			SrcAddr: src, DstAddr: c.Target,
			Packets: 3, Octets: 132,
			First: start, Last: at(start, time.Duration(1+rng.Intn(20))*time.Second),
			SrcPort: ephemeralPort(rng), DstPort: c.TargetPort,
			TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
		})
	}
	return out
}
