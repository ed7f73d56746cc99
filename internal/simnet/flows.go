package simnet

import (
	"slices"
	"time"

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
	// day's synthesis holds before spilling them to its hour segments,
	// temp files of the records whose First falls in each hour of the
	// day (see spill.go). Zero never spills: each day is held whole in
	// memory and delivered in one call. StreamFlows honors the budget;
	// SynthesizeFlows, which returns the complete log anyway, ignores it.
	// A record takes recordMemBytes (56) in memory, and a day never holds
	// more than spillRecords (8,192) however large the budget. While
	// synthesizing, each day slot holds at most min(SpillBudget, 8,192
	// records) plus one generator call's records, and 24 segment writers
	// of 32 KiB; while delivering, the stream holds one hour of one day
	// and its sort scratch (24 bytes per record).
	SpillBudget int
	// SpillDir is where spill segments are created; empty means the
	// system temp directory. Segments are removed as their day is
	// delivered.
	SpillDir string
}

// Common scan target ports of the era (MS-RPC, NetBIOS, SMB, MSSQL,
// Symantec AV, Sasser FTP backdoor).
var scanPorts = []uint16{135, 139, 445, 1433, 2967, 5554}

// SynthesizeFlows generates the NetFlow records crossing the observed
// network's border for [from, to] (inclusive dates). Output is sorted by
// flow start time. Generation is deterministic per (world seed, day) and
// independent across days, so days are synthesized concurrently;
// overlapping windows agree on their shared days and concurrency never
// changes the output. Every generator keeps a record's First inside its
// day, so the time-sorted days in date order are the sorted log.
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
	return slices.Concat(perDay...)
}

// StreamFlows synthesizes the window's traffic one pool-sized batch of
// days at a time and hands time-sorted records to fn in chronological
// order. Peak memory is one batch of days, not the whole window, while
// day synthesis still saturates the shared worker pool. With
// opts.SpillBudget set, a day whose synthesis fills its buffer of
// min(budget, 8,192 records) is spilled to disk as hour segments and
// streams back one hour per call — fn may then see several calls with
// the same day timestamp, and peak memory stays near one buffer per
// slot plus one hour of one day however large the days. A day that
// never fills its buffer, and with a zero budget every day, arrives in
// one call. Either way, concatenating the records across calls
// reproduces SynthesizeFlows byte for byte. The records passed to fn are
// valid only until fn returns: the stream reuses its buffers, so fn must
// copy what it keeps. A non-nil error from fn aborts the stream and is
// returned.
//
// A batch of stats.Workers(days) days is synthesized in parallel, day i
// of it in slots[i], then its days are delivered in order: segments are
// written only while a batch is synthesized and removed as each day is
// delivered. A day kept in memory still lives in its slot's buffer while
// it is delivered, which is before the next batch reuses the slot. One
// hour buffer serves every spilled day.
func (w *World) StreamFlows(from, to time.Time, opts FlowOptions, fn func(day time.Time, records []netflow.Record) error) error {
	lo, hi := w.clampDays(from, to)
	if hi < lo {
		return nil
	}
	window := stats.Workers(hi - lo + 1)
	slots := make([]daySlot, window)
	errs := make([]error, window)
	var reader hourReader
	for base := lo; base <= hi; base += window {
		batch := slots[:min(window, hi-base+1)]
		stats.Parallel(len(batch), func(_, i int) {
			errs[i] = w.synthesizeSlot(base+i, opts, &batch[i])
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
			err = reader.deliver(&batch[i], func(recs []netflow.Record) error {
				return fn(day, recs)
			})
		}
		if err != nil {
			// Delivered and failed days have removed their segments
			// already; drop the rest before reporting.
			for i := range batch {
				batch[i].spill.cleanup()
			}
			return err
		}
	}
	return nil
}

// daySlot is what one in-flight day of a stream keeps from batch to
// batch: the buffer its synthesis appends to, the scratch that puts a
// day kept in memory in time order, and the spiller with its hour
// segments' writers. The buffer and scratch grow to the most records
// the slot has held, so later days reuse them instead of regrowing from
// nothing.
type daySlot struct {
	recs  []netflow.Record
	order timeScratch
	spill daySpiller
}

// synthesizeSlot synthesizes day d under the spill budget into slot:
// afterwards the day is either spilled to its hour segments or, sorted,
// in slot.recs.
func (w *World) synthesizeSlot(d int, opts FlowOptions, slot *daySlot) error {
	slot.spill.reset(opts.SpillDir, spillLimit(opts.SpillBudget), netflow.TimeOf(w.Date(d)))
	return slot.finish(w.synthesizeDay(d, opts, slot.recs[:0], &slot.spill))
}

// finish ends a synthesized day in its slot: out, the records its
// synthesis still holds, are spilled if the day has spilled and put in
// time order in slot.recs if not.
func (slot *daySlot) finish(out []netflow.Record) error {
	out, err := slot.spill.finish(out)
	slot.recs = out
	if err != nil {
		return err
	}
	slot.order.sortByTime(out)
	return nil
}

// A checkpointer sees a day's buffer between generator calls and
// returns the buffer synthesis goes on appending to: a spiller writes a
// full buffer to its hour segments (spill.go), a fold hands whole chunks
// to its folder (fold.go). Neither the generators nor their RNG streams notice.
type checkpointer interface {
	checkpoint(out []netflow.Record) []netflow.Record
}

// keepDay is the checkpointer that keeps the whole day in the buffer.
type keepDay struct{}

func (keepDay) checkpoint(out []netflow.Record) []netflow.Record { return out }

// synthesizeDay appends one day's records to out, in generation order,
// running sp between generator calls; a nil sp keeps the whole day.
func (w *World) synthesizeDay(d int, opts FlowOptions, out []netflow.Record, sp checkpointer) []netflow.Record {
	if sp == nil {
		sp = keepDay{}
	}
	rng := stats.NewRNG(w.Cfg.Seed ^ 0xf10f ^ uint64(d)<<16)
	day := netflow.TimeOf(w.Date(d))

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

// at returns the time offset after t.
func at(t netflow.Time, offset time.Duration) netflow.Time { return t + netflow.Time(offset) }

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
func (w *World) fastScanFlows(rng *stats.RNG, day netflow.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	targets := 40 + rng.Intn(40)
	hour := time.Duration(rng.Intn(24)) * time.Hour
	port := scanPorts[rng.Intn(len(scanPorts))]
	for i := 0; i < targets; i++ {
		start := at(day, hour+time.Duration(rng.Intn(3600))*time.Second)
		r := netflow.Record{
			SrcAddr: src, DstAddr: w.randObservedAddr(rng),
			Packets: 2, Octets: 96,
			First: start, Last: at(start, 3*time.Second),
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
func (w *World) slowScanFlows(rng *stats.RNG, day netflow.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	targets := 8 + rng.Intn(18) // < 30 addresses per day
	port := scanPorts[rng.Intn(len(scanPorts))]
	for i := 0; i < targets; i++ {
		start := at(day, time.Duration(rng.Intn(86400))*time.Second)
		out = append(out, netflow.Record{
			SrcAddr: src, DstAddr: w.randObservedAddr(rng),
			Packets: 3, Octets: 156, // 36 "payload" bytes of TCP options
			First: start, Last: at(start, 9*time.Second),
			SrcPort: ephemeralPort(rng), DstPort: port,
			TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
		})
	}
	return out
}

// spamFlows emits a bot's SMTP delivery attempts: many distinct mail
// servers, small template messages, a high rejection rate.
func (w *World) spamFlows(rng *stats.RNG, day netflow.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
	flows := 15 + rng.Intn(20)
	base := time.Duration(rng.Intn(20)) * time.Hour
	for i := 0; i < flows; i++ {
		start := at(day, base+time.Duration(rng.Intn(7200))*time.Second)
		r := netflow.Record{
			SrcAddr: src, DstAddr: w.mailServer(rng.Intn(64)),
			First: start, Last: at(start, 8*time.Second),
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
func (w *World) benignFlows(rng *stats.RNG, day netflow.Time, src netaddr.Addr, out []netflow.Record) []netflow.Record {
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
			First: start, Last: at(start, time.Duration(5+rng.Intn(120))*time.Second),
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
				First: start, Last: at(start, 20*time.Second),
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
func (w *World) candidateExtraFlows(rng *stats.RNG, d int, out []netflow.Record, sp checkpointer) []netflow.Record {
	day := netflow.TimeOf(w.Date(d))
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
						First: start, Last: at(start, 2*time.Second),
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
