package simnet

import (
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// FlowOptions controls traffic synthesis.
type FlowOptions struct {
	// BenignSourcesPerDay is the number of distinct legitimate client
	// sources generating payload-bearing sessions each day.
	BenignSourcesPerDay int
	// CandidateExtras adds the low-and-slow traffic the blocking analysis
	// observes inside the bot-test /24s: unmonitored suspicious hosts
	// (ephemeral-to-ephemeral, slow probing — the unknown population) and
	// the occasional legitimate client (the innocent population).
	CandidateExtras bool
	// SpillBudget caps the approximate bytes of in-memory records one
	// day's synthesis holds before spilling a sorted run to a temp
	// segment file (see spill.go). Zero keeps whole days in memory.
	// StreamFlows honors the budget; SynthesizeFlows, which returns the
	// complete log anyway, ignores it. Sorting a run takes 24 bytes of
	// scratch per record on top of the record's own size
	// (recordMemBytes), so peak synthesis memory is roughly
	// workers × SpillBudget × (1 + 24/recordMemBytes).
	SpillBudget int
	// SpillDir is where spill segments are created; empty means the
	// system temp directory. Segments are removed as they are consumed.
	SpillDir string
}

// DefaultFlowOptions returns the options used by the experiment harness.
func DefaultFlowOptions() FlowOptions {
	return FlowOptions{BenignSourcesPerDay: 400, CandidateExtras: true}
}

// Common scan target ports of the era (MS-RPC, NetBIOS, SMB, MSSQL,
// Symantec AV, Sasser FTP backdoor).
var scanPorts = []uint16{135, 139, 445, 1433, 2967, 5554}

// SynthesizeFlows generates the NetFlow records crossing the observed
// network's border for [from, to] (inclusive dates). Output is sorted by
// flow start time. Generation is deterministic per (world seed, day) and
// independent across days, so days are synthesized concurrently;
// overlapping windows agree on their shared days and concurrency never
// changes the output.
func (w *World) SynthesizeFlows(from, to time.Time, opts FlowOptions) []netflow.Record {
	lo, hi := w.clampDays(from, to)
	if hi < lo {
		return nil
	}
	perDay := make([][]netflow.Record, hi-lo+1)
	stats.Parallel(hi-lo+1, func(_, i int) {
		day := w.synthesizeDay(lo+i, opts, nil, nil)
		sortByTime(day)
		perDay[i] = day
	})
	return mergeByTime(perDay)
}

// mergeByTime merges already-sorted per-day slices into one
// chronological log. Ties across slices resolve to the lower slice
// index, mirroring concatenation order under a stable sort. Every
// generator emits a day's flows with First inside that day, so in
// practice consecutive days never overlap and the merge is a straight
// concatenation; the runMerge path keeps the merge correct if a future
// generator crosses midnight.
func mergeByTime(perDay [][]netflow.Record) []netflow.Record {
	total := 0
	overlap := false
	var prevMax time.Time
	havePrev := false
	for _, day := range perDay {
		total += len(day)
		if len(day) == 0 {
			continue
		}
		if havePrev && day[0].First.Before(prevMax) {
			overlap = true
		}
		prevMax = day[len(day)-1].First
		havePrev = true
	}
	out := make([]netflow.Record, 0, total)
	if !overlap {
		for _, day := range perDay {
			out = append(out, day...)
		}
		return out
	}
	runs := make([]runCursor, len(perDay))
	for i := range perDay {
		runs[i].setMem(perDay[i])
	}
	out = out[:total]
	// In-memory cursors never error.
	_, _ = newRunMerge(runs).fill(out)
	return out
}

// StreamFlows synthesizes the window's traffic one pool-sized batch of
// days at a time and hands time-sorted records to fn in chronological
// order. Peak memory is one batch of days, not the whole window, while
// day synthesis still saturates the shared worker pool. With
// opts.SpillBudget set, each day's synthesis additionally spills sorted
// runs to disk and the day streams back as a k-way merge in bounded
// chunks — fn may then see several calls with the same day timestamp,
// and peak memory stays near workers × SpillBudget regardless of day
// size. Either way, concatenating the records across calls reproduces
// SynthesizeFlows byte for byte. The records passed to fn are valid
// only until fn returns: the spilled stream reuses its buffers, so fn
// must copy what it keeps. A non-nil error from fn aborts the stream
// and is returned.
func (w *World) StreamFlows(from, to time.Time, opts FlowOptions, fn func(day time.Time, records []netflow.Record) error) error {
	lo, hi := w.clampDays(from, to)
	if hi < lo {
		return nil
	}
	window := stats.Workers(hi - lo + 1)
	if opts.SpillBudget > 0 {
		return w.streamSpilled(lo, hi, window, opts, fn)
	}
	for base := lo; base <= hi; base += window {
		n := min(window, hi-base+1)
		chunk := make([][]netflow.Record, n)
		stats.Parallel(n, func(_, i int) {
			day := w.synthesizeDay(base+i, opts, nil, nil)
			sortByTime(day)
			chunk[i] = day
		})
		for i, recs := range chunk {
			if err := fn(w.Date(base+i), recs); err != nil {
				return err
			}
			chunk[i] = nil // release the day before synthesizing the next batch
		}
	}
	return nil
}

// daySlot is what one in-flight day of a spilled stream keeps from batch
// to batch: the run buffer its synthesis appends to and the scratch that
// puts each run in time order. Both grow to the largest run the slot has
// held, so later days reuse them instead of regrowing from nothing.
type daySlot struct {
	run   []netflow.Record
	order timeScratch
}

// streamSpilled streams days [lo, hi] under the spill budget, window
// days at a time: a batch is synthesized in parallel, day i of it in
// slots[i], then its days' merged runs are delivered in order. A day's
// in-memory remainder still lives in its slot's run buffer while it is
// delivered, which is before the next batch reuses the slot. One
// delivery chunk serves every day.
func (w *World) streamSpilled(lo, hi, window int, opts FlowOptions, fn func(day time.Time, records []netflow.Record) error) error {
	slots := make([]daySlot, window)
	runs := make([]dayRuns, window)
	errs := make([]error, window)
	chunk := make([]netflow.Record, spillChunkRecords)
	for base := lo; base <= hi; base += window {
		batch := runs[:min(window, hi-base+1)]
		stats.Parallel(len(batch), func(_, i int) {
			batch[i], errs[i] = w.synthesizeDayRuns(base+i, opts, &slots[i])
		})
		var err error
		for _, e := range errs[:len(batch)] {
			if e != nil {
				err = e
				break
			}
		}
		for i := 0; i < len(batch) && err == nil; i++ {
			day := w.Date(base + i)
			err = batch[i].deliver(chunk, func(recs []netflow.Record) error {
				return fn(day, recs)
			})
		}
		if err != nil {
			// Delivered and failed days have removed their segments
			// already; drop the rest before reporting.
			for i := range batch {
				batch[i].cleanup()
			}
			return err
		}
	}
	return nil
}

// synthesizeDayRuns synthesizes one day under the spill budget into
// slot's buffers, returning its sorted runs; the in-memory run is the
// slot's run buffer.
func (w *World) synthesizeDayRuns(d int, opts FlowOptions, slot *daySlot) (dayRuns, error) {
	sp := &daySpiller{dir: opts.SpillDir, budget: opts.SpillBudget, order: &slot.order}
	out := w.synthesizeDay(d, opts, slot.run[:0], sp)
	slot.run = out
	if sp.err != nil {
		sp.cleanup()
		return dayRuns{}, sp.err
	}
	slot.order.sortByTime(out)
	return dayRuns{mem: out, paths: sp.paths, counts: sp.counts}, nil
}

// synthesizeDay generates one day's records. sp may be nil (keep
// everything in memory); when set, sp.checkpoint runs between generator
// calls so an over-budget run spills without the generators — or their
// RNG streams — ever noticing.
func (w *World) synthesizeDay(d int, opts FlowOptions, out []netflow.Record, sp *daySpiller) []netflow.Record {
	rng := stats.NewRNG(w.Cfg.Seed ^ 0xf10f ^ uint64(d)<<16)
	day := w.Date(d)

	// 1. Bot activity: scanning and spamming.
	for _, epIdx := range w.episodesByDay[d] {
		ep := &w.episodes[epIdx]
		src := w.addrOf(ep)
		if ep.flags&epScanner != 0 && w.activeOn(epIdx, ep, d, kindScan) {
			if ep.flags&epSlow != 0 {
				out = w.slowScanFlows(rng, day, src, out)
			} else {
				out = w.fastScanFlows(rng, day, src, out)
			}
		}
		if ep.flags&epSpammer != 0 && w.activeOn(epIdx, ep, d, kindSpam) {
			out = w.spamFlows(rng, day, src, out)
		}
		out = sp.checkpoint(out)
	}

	// 2. DDoS campaigns scheduled for this day.
	for _, c := range w.campaigns {
		if c.Day != d {
			continue
		}
		var participants []netaddr.Addr
		w.DDoSParticipants(c).Each(func(a netaddr.Addr) bool {
			participants = append(participants, a)
			return true
		})
		for _, src := range participants {
			out = w.ddosFlows(rng, day, src, c, out)
			out = sp.checkpoint(out)
		}
	}

	// 3. Benign clients with a limited, stable audience (locality).
	for i := 0; i < opts.BenignSourcesPerDay; i++ {
		src := w.Model.SampleAddr(rng)
		out = w.benignFlows(rng, day, src, out)
		out = sp.checkpoint(out)
	}

	// 4. Candidate-block extras.
	if opts.CandidateExtras {
		out = w.candidateExtraFlows(rng, d, out, sp)
	}
	return out
}

// at builds a timestamp on day at the given offset.
func at(day time.Time, offset time.Duration) time.Time { return day.Add(offset) }

// randObservedAddr draws a uniform address inside the observed network —
// overwhelmingly dark space, as a scanner would find.
func (w *World) randObservedAddr(rng *stats.RNG) netaddr.Addr {
	blocks := w.Model.Observed()
	b := blocks[rng.Intn(len(blocks))]
	return b.Base() + netaddr.Addr(rng.Uint64n(b.Size()))
}

// mailServer returns one of the observed network's SMTP servers.
func (w *World) mailServer(i int) netaddr.Addr {
	b := w.Model.Observed()[0]
	return b.Base() + netaddr.Addr(256+uint32(i%64))
}

// webServer returns one of the observed network's public web servers.
func (w *World) webServer(i int) netaddr.Addr {
	b := w.Model.Observed()[0]
	return b.Base() + netaddr.Addr(1024+uint32(i%256))
}

func ephemeralPort(rng *stats.RNG) uint16 { return uint16(1024 + rng.Intn(64000)) }

// fastScanFlows emits a burst scan: dozens of distinct targets within a
// single hour, nearly all failing — what the hourly threshold detector is
// calibrated to catch.
func (w *World) fastScanFlows(rng *stats.RNG, day time.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	targets := 40 + rng.Intn(40)
	hour := time.Duration(rng.Intn(24)) * time.Hour
	port := scanPorts[rng.Intn(len(scanPorts))]
	for i := 0; i < targets; i++ {
		start := at(day, hour+time.Duration(rng.Intn(3600))*time.Second)
		r := netflow.Record{
			SrcAddr: src, DstAddr: w.randObservedAddr(rng),
			Packets: 2, Octets: 96,
			First: start, Last: start.Add(3 * time.Second),
			SrcPort: ephemeralPort(rng), DstPort: port,
			TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
		}
		if rng.Bool(0.04) { // the rare live service answers
			r.TCPFlags |= netflow.FlagACK | netflow.FlagPSH
			r.Packets, r.Octets = 6, 6*40+200
		}
		out = append(out, r)
	}
	return out
}

// slowScanFlows emits a low-and-slow scan: under 30 targets spread across
// the whole day — invisible to the hourly detector (§6.2).
func (w *World) slowScanFlows(rng *stats.RNG, day time.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	targets := 8 + rng.Intn(18) // < 30 addresses per day
	port := scanPorts[rng.Intn(len(scanPorts))]
	for i := 0; i < targets; i++ {
		start := at(day, time.Duration(rng.Intn(86400))*time.Second)
		out = append(out, netflow.Record{
			SrcAddr: src, DstAddr: w.randObservedAddr(rng),
			Packets: 3, Octets: 156, // 36 "payload" bytes of TCP options
			First: start, Last: start.Add(9 * time.Second),
			SrcPort: ephemeralPort(rng), DstPort: port,
			TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
		})
	}
	return out
}

// spamFlows emits a bot's SMTP delivery attempts: many distinct mail
// servers, small template messages, a high rejection rate.
func (w *World) spamFlows(rng *stats.RNG, day time.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	flows := 15 + rng.Intn(20)
	base := time.Duration(rng.Intn(20)) * time.Hour
	for i := 0; i < flows; i++ {
		start := at(day, base+time.Duration(rng.Intn(7200))*time.Second)
		r := netflow.Record{
			SrcAddr: src, DstAddr: w.mailServer(rng.Intn(64)),
			First: start, Last: start.Add(8 * time.Second),
			SrcPort: ephemeralPort(rng), DstPort: 25, Proto: netflow.ProtoTCP,
		}
		if rng.Bool(0.55) { // delivered: small, uniform template mail
			r.TCPFlags = netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH | netflow.FlagFIN
			r.Packets = 8 + uint32(rng.Intn(4))
			r.Octets = r.Packets*40 + 600 + uint32(rng.Intn(1500))
		} else { // refused or tarpitted
			r.TCPFlags = netflow.FlagSYN | netflow.FlagRST
			r.Packets, r.Octets = 3, 128
		}
		out = append(out, r)
	}
	return out
}

// benignFlows emits a legitimate client's sessions against the observed
// network's public servers.
func (w *World) benignFlows(rng *stats.RNG, day time.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	sessions := 2 + rng.Intn(9)
	base := time.Duration(rng.Intn(22)) * time.Hour
	for i := 0; i < sessions; i++ {
		start := at(day, base+time.Duration(rng.Intn(5400))*time.Second)
		dst := w.webServer(rng.Intn(256))
		dport := uint16(80)
		if rng.Bool(0.3) {
			dport = 443
		}
		pkts := 8 + uint32(rng.Intn(40))
		r := netflow.Record{
			SrcAddr: src, DstAddr: dst,
			Packets: pkts, Octets: pkts*40 + uint32(rng.LogNormal(7.2, 1.1)),
			First: start, Last: start.Add(time.Duration(5+rng.Intn(120)) * time.Second),
			SrcPort: ephemeralPort(rng), DstPort: dport,
			TCPFlags: netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH | netflow.FlagFIN,
			Proto:    netflow.ProtoTCP,
		}
		if rng.Bool(0.02) { // the odd failed fetch
			r.TCPFlags = netflow.FlagSYN | netflow.FlagRST
			r.Packets, r.Octets = 2, 96
		}
		out = append(out, r)
	}
	// A small share of legitimate hosts are mail relays; their SMTP
	// profile (few servers, large bodies, low rejection) must not trip
	// the spam detector.
	if rng.Bool(0.03) {
		mails := 3 + rng.Intn(5)
		for i := 0; i < mails; i++ {
			start := at(day, base+time.Duration(rng.Intn(7200))*time.Second)
			pkts := 20 + uint32(rng.Intn(60))
			out = append(out, netflow.Record{
				SrcAddr: src, DstAddr: w.mailServer(rng.Intn(6)),
				Packets: pkts, Octets: pkts*40 + 8000 + uint32(rng.Intn(60000)),
				First: start, Last: start.Add(20 * time.Second),
				SrcPort: ephemeralPort(rng), DstPort: 25,
				TCPFlags: netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH | netflow.FlagFIN,
				Proto:    netflow.ProtoTCP,
			})
		}
	}
	return out
}

// candidateExtraFlows generates the residual traffic inside the bot-test
// /24s: per-block pools of suspicious hosts probing slowly or talking
// ephemeral-to-ephemeral without payload (the unknown population), plus
// rare legitimate clients (the innocent population). Pools are derived
// deterministically from the block base so the same hosts recur across
// the window, exactly as hand-examination found in §6.2.
func (w *World) candidateExtraFlows(rng *stats.RNG, d int, out []netflow.Record, sp *daySpiller) []netflow.Record {
	day := w.Date(d)
	var blocks []netaddr.Addr
	w.botTestBlocks.Each(func(base netaddr.Addr) bool {
		blocks = append(blocks, base)
		return true
	})
	for _, base := range blocks {
		pool := stats.NewRNG(w.Cfg.Seed ^ 0xb10c ^ uint64(base))
		nSuspicious := 2 + pool.Intn(3)
		for h := 0; h < nSuspicious; h++ {
			host := base + netaddr.Addr(1+pool.Intn(254))
			// Skip days pseudo-randomly; each host shows up on roughly
			// half the days.
			if !stats.NewRNG(w.Cfg.Seed ^ 0x5105 ^ uint64(host) ^ uint64(d)<<32).Bool(0.5) {
				continue
			}
			if pool.Bool(0.5) {
				out = w.slowScanFlows(rng, day, host, out)
			} else {
				// Ephemeral-to-ephemeral chatter with no payload.
				flows := 4 + rng.Intn(14)
				for i := 0; i < flows; i++ {
					start := at(day, time.Duration(rng.Intn(86400))*time.Second)
					out = append(out, netflow.Record{
						SrcAddr: host, DstAddr: w.randObservedAddr(rng),
						Packets: 2, Octets: 104,
						First: start, Last: start.Add(2 * time.Second),
						SrcPort: ephemeralPort(rng), DstPort: ephemeralPort(rng),
						TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
					})
				}
			}
		}
		// Rare legitimate client inside the block: ~15% of blocks have
		// one, active on a couple of days of the window.
		if pool.Bool(0.15) {
			host := base + netaddr.Addr(1+pool.Intn(254))
			if stats.NewRNG(w.Cfg.Seed ^ 0x1881 ^ uint64(host) ^ uint64(d)<<32).Bool(0.18) {
				out = w.benignFlows(rng, day, host, out)
			}
		}
		out = sp.checkpoint(out)
	}
	return out
}

// PayloadBearingSources returns the distinct sources with at least one
// payload-bearing flow in records.
func PayloadBearingSources(records []netflow.Record) ipset.Set {
	b := ipset.NewBuilder(0)
	for i := range records {
		if records[i].PayloadBearing() {
			b.Add(records[i].SrcAddr)
		}
	}
	return b.Build()
}

// TCPSources returns the distinct sources with at least one TCP flow.
func TCPSources(records []netflow.Record) ipset.Set {
	b := ipset.NewBuilder(0)
	for i := range records {
		if records[i].Proto == netflow.ProtoTCP {
			b.Add(records[i].SrcAddr)
		}
	}
	return b.Build()
}
