package dnsbl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// The UDP serve path. ServeConns runs N independent shard loops. Each
// shard owns a socket (SO_REUSEPORT gives every shard its own fd on
// Linux, so the kernel load-balances queries with no userspace
// dispatcher), a reusable batch of buffer slots, and a private
// flight-event arena. A loop iteration is:
//
//	recvmmsg (one syscall, up to Batch datagrams)
//	  → for each slot, under recover: fast parse → matcher lookup
//	    → zero-copy encode
//	  → sendmmsg (one syscall for the whole batch)
//
// Nothing on that path allocates and nothing crosses a goroutine
// boundary, so throughput scales with shards until the NIC runs out.
// Packets the fast codec cannot serve (wrong shape, non-A queries,
// compressed names) drop to Server.handle — the same path TCP queries
// take — so behavior is identical, just slower, for the rare shapes.
//
// The shard loop never stops reading, so there is no receive-side shed
// valve: under overload, excess queries drop in the kernel socket
// buffer. The shed counters count send-side faults only.

const (
	defaultBatch = 32
	maxBatch     = 1024
	// shardEventSample records one wide event per this many healthy
	// fast-path packets. Anomalies (slow path, send faults, panics)
	// always record. Sampling keeps the flight recorder useful at line rate
	// without making the arena the hot path's only allocation source.
	shardEventSample = 64
)

// ShardConfig sizes the serve path. The zero value is ready to use:
// one shard per listener conn, 32-packet batches.
type ShardConfig struct {
	// Shards is the number of shard loops. 0 means one per conn handed
	// to ServeConns. When Shards exceeds the conn count, shards share
	// conns round-robin (the portable single-socket mode); fewer shards
	// than conns is an error, since some socket would go unread.
	Shards int
	// Batch is the number of datagrams moved per recvmmsg/sendmmsg
	// syscall (clamped to 1..1024; 0 means 32).
	Batch int
}

func (c ShardConfig) withDefaults(conns int) ShardConfig {
	if c.Shards <= 0 {
		c.Shards = conns
	}
	if c.Batch <= 0 {
		c.Batch = defaultBatch
	}
	if c.Batch > maxBatch {
		c.Batch = maxBatch
	}
	return c
}

// shard is one independent serve loop: its batch arena, its event
// arena, its counters. No field is touched by any other goroutine while
// the loop runs, so the hot path takes no locks beyond the obs atomics.
type shard struct {
	id int
	io batchIO

	msgs []batchMsg // len = Batch; in/out windows into the arenas below

	arena flight.Arena
	// tick is the shard's one sampling counter, bumped once per packet:
	// it drives both the 1-in-shardEventSample flight events and the
	// 1-in-SampleN analytics tap, so enabling analytics adds no second
	// counter to the fast path.
	tick uint32

	// tap is the shard's analytics sink (nil unless the server enabled
	// analytics before serving); tapMask is the sketch sampling mask
	// (SampleN-1). nowMS is the batch timestamp the miss ring records,
	// refreshed once per batch from the clock read runShard already
	// does.
	tap     *tap
	tapMask uint32
	nowMS   uint32

	// Per-shard obs series (zone + shard labels), rolled up next to the
	// server totals so a hot or faulty shard is visible in /metrics.
	packets  *obs.Counter // datagrams received
	batches  *obs.Counter // recvmmsg returns
	fastPath *obs.Counter // answered by the zero-copy codec
	slowPath *obs.Counter // handed to Server.handle
	shed     *obs.Counter // responses abandoned on transient send faults
	dropped  *obs.Counter // responses lost to hard write errors
}

func (s *Server) newShard(id int, conn net.PacketConn, cfg ShardConfig) *shard {
	sh := &shard{id: id, msgs: make([]batchMsg, cfg.Batch)}
	// One contiguous arena per direction: better locality than
	// per-slot allocations, and a single GC object each.
	inArena := make([]byte, cfg.Batch*maxMessage)
	outArena := make([]byte, cfg.Batch*outSlotSize)
	for i := range sh.msgs {
		sh.msgs[i].in = inArena[i*maxMessage : (i+1)*maxMessage]
		sh.msgs[i].out = outArena[i*outSlotSize : (i+1)*outSlotSize]
	}
	sh.io = newBatcher(conn, sh.msgs)
	if s.analytics != nil {
		sh.tap = s.analytics.newTap()
		sh.tapMask = s.analytics.sampleMask
	}
	z := []string{"zone", s.zone, "shard", strconv.Itoa(id)}
	sh.packets = s.metrics.Counter("unclean_dnsbl_shard_packets_total", "Datagrams received by this shard.", z...)
	sh.batches = s.metrics.Counter("unclean_dnsbl_shard_batches_total", "Batched reads completed by this shard.", z...)
	sh.fastPath = s.metrics.Counter("unclean_dnsbl_shard_fastpath_total", "Packets answered by the zero-copy codec.", z...)
	sh.slowPath = s.metrics.Counter("unclean_dnsbl_shard_slowpath_total", "Packets handed to the allocating slow path.", z...)
	sh.shed = s.metrics.Counter("unclean_dnsbl_shard_shed_total", "Responses abandoned on transient send faults.", z...)
	sh.dropped = s.metrics.Counter("unclean_dnsbl_shard_dropped_total", "Responses lost to hard write errors.", z...)
	return sh
}

// ListenShards opens n UDP sockets on addr for the sharded serve path.
// On Linux every socket sets SO_REUSEPORT before bind, so the kernel
// spreads queries across them; elsewhere (or when n is 1) a single
// socket is returned and the shards share it. n <= 0 means GOMAXPROCS.
// The caller passes the result to ServeConns and owns closing whatever
// conns remain on error.
func ListenShards(addr string, n int) ([]net.PacketConn, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if !supportsReusePort {
		n = 1
	}
	lc := net.ListenConfig{Control: reusePortControl}
	conns := make([]net.PacketConn, 0, n)
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	conns = append(conns, first)
	// Bind the rest to the resolved address, so addr ":0" lands every
	// shard on the port the first bind chose.
	resolved := first.LocalAddr().String()
	for len(conns) < n {
		c, err := lc.ListenPacket(context.Background(), "udp", resolved)
		if err != nil {
			// SO_REUSEPORT refused (old kernel, odd network stack):
			// fall back to the sockets we have rather than fail the
			// daemon — the shards will share.
			break
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// ServeConns answers queries on conns with cfg.Shards independent
// batched shard loops until every conn is closed or ctx is canceled.
// Any net.PacketConn works: *net.UDPConn gets recvmmsg/sendmmsg
// batches, anything else (fault-injecting wrappers included) one
// datagram per syscall. On cancellation all conns are closed — the
// blocked reads return net.ErrClosed, which each shard treats as a
// clean exit; a batch being answered at that moment still goes to
// WriteBatch, and every response the closed socket refuses is counted
// Dropped, so Queries - Dropped equals the responses that left. Shards
// map to conns round-robin: with one conn per shard (ListenShards on
// Linux) each loop owns its socket; with more shards than conns the
// shards share. Fewer shards than conns is an error.
//
// Shard counters roll into the server's Snapshot()/SLO/flight
// machinery, plus the per-shard unclean_dnsbl_shard_*_total series
// (zone and shard labels) on /metrics.
func (s *Server) ServeConns(ctx context.Context, conns []net.PacketConn, cfg ShardConfig) error {
	if len(conns) == 0 {
		return fmt.Errorf("dnsbl: ServeConns needs at least one conn")
	}
	if cfg.Shards > 0 && cfg.Shards < len(conns) {
		return fmt.Errorf("dnsbl: %d shards cannot read %d conns; pass at least one shard per conn", cfg.Shards, len(conns))
	}
	cfg = cfg.withDefaults(len(conns))

	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		shards[i] = s.newShard(i, conns[i%len(conns)], cfg)
	}

	// The closer: cancellation closes every conn, waking all blocked
	// reads at once.
	stopCloser := make(chan struct{})
	var closerWG sync.WaitGroup
	closerWG.Add(1)
	go func() {
		defer closerWG.Done()
		select {
		case <-ctx.Done():
			for _, c := range conns {
				c.Close() //nolint:errcheck // best effort; shard loops observe ErrClosed
			}
		case <-stopCloser:
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = s.runShard(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	close(stopCloser)
	closerWG.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runShard is one shard's serve loop: read a batch, answer every slot,
// send the batch, account. Exits cleanly on conn close or ctx cancel.
func (s *Server) runShard(ctx context.Context, sh *shard) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		n, err := sh.io.ReadBatch(sh.msgs)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue // injected or inherited deadline; not fatal
			}
			return err
		}
		if n == 0 {
			continue
		}
		start := time.Now()
		sh.nowMS = uint32(start.UnixMilli())
		sh.batches.Inc()
		sh.packets.Add(uint64(n))
		cl := s.list.Load()
		for i := 0; i < n; i++ {
			s.serveSlot(sh, &sh.msgs[i], cl)
		}
		werr := sh.io.WriteBatch(sh.msgs[:n])
		s.finishBatch(sh, sh.msgs[:n], start)
		if werr != nil {
			if ctx.Err() != nil || errors.Is(werr, net.ErrClosed) {
				return nil
			}
			return werr
		}
	}
}

// serveSlot answers one batch slot with panic isolation: a panic
// anywhere in the slot's handling is counted (panics and dropped),
// sends nothing for that slot, and leaves a FlagPanic|FlagErr wide
// event, which finishBatch counts against the SLO. The rest of the
// batch still goes out.
func (s *Server) serveSlot(sh *shard, m *batchMsg, cl *blocklist.Matcher) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			s.dropped.Inc()
			// The hook may have panicked before serveMsg reset the slot,
			// so clear everything a previous batch left in it.
			m.outN = 0
			m.sendShed, m.sendErr = false, false
			ev := sh.arena.New()
			ev.Kind = flight.KindQuery
			ev.Client = m.client
			ev.Name = s.zone
			ev.Flags = flight.FlagPanic | flight.FlagErr
			ev.Verdict = "panic"
			m.ev = ev
		}
	}()
	if s.handleHook != nil {
		s.handleHook()
	}
	s.serveMsg(sh, m, cl)
}

// serveMsg answers one batch slot in place. The fast path — common
// query shape, matcher lookup, zero-copy encode into the outbound slot
// — allocates nothing; everything else falls through to Server.handle
// and copies its answer into the slot.
func (s *Server) serveMsg(sh *shard, m *batchMsg, cl *blocklist.Matcher) {
	m.outN = 0
	m.ev = nil
	m.sendShed, m.sendErr = false, false

	pkt := m.in[:m.inN]
	sh.tick++
	addr, qlen, _, ok := parseFastQuery(pkt, s.zoneWire)
	if !ok {
		// Slow path: full decode, allocation allowed, event always
		// recorded — rare shapes are exactly what the flight recorder
		// should keep.
		sh.slowPath.Inc()
		ev := sh.arena.New()
		ev.Kind = flight.KindQuery
		ev.Client = m.client
		ev.Name = s.zone
		if resp := s.handle(pkt, ev); resp != nil {
			m.outN = copy(m.out, resp)
		}
		// The rare shapes still answer real queries; feed them to the
		// tap at the same sampling rate (same goroutine, so the shard's
		// own tap is safe — no lock).
		if sh.tap != nil && (ev.Verdict == "hit" || ev.Verdict == "miss") {
			if ev.Verdict == "miss" {
				sh.tap.recordMiss(ev.Addr, sh.nowMS)
			}
			if sh.tick&sh.tapMask == 0 {
				sh.tap.observe(ev.Client, ev.Addr, ev.Verdict == "hit")
				s.analytics.cSampled.Inc()
			}
		}
		m.ev = ev
		return
	}

	sh.fastPath.Inc()
	s.queries.Inc()

	entry, listed := cl.Lookup(addr)
	var code netaddr.Addr
	if listed {
		s.hits.Inc()
		code = codeFor(entry.Reason)
	}
	m.outN = encodeFastResponse(m.out, pkt, qlen, listed, code, s.ttl)

	// Analytics tap: every not-listed answer enters the prediction
	// ring (one atomic store); 1 in SampleN packets — the same tick that
	// samples flight events — update the sketches.
	if sh.tap != nil {
		if !listed {
			sh.tap.recordMiss(addr, sh.nowMS)
		}
		if sh.tick&sh.tapMask == 0 {
			sh.tap.observe(m.client, addr, listed)
			s.analytics.cSampled.Inc()
		}
	}

	// Sampled wide event: 1 in shardEventSample healthy packets. The
	// event is completed (latency, send flags) in finishBatch.
	if sh.tick%shardEventSample == 0 {
		ev := sh.arena.New()
		ev.Kind = flight.KindQuery
		ev.Client = m.client
		ev.Name = s.zone
		ev.Addr = addr
		if listed {
			ev.Verdict = "hit"
			ev.Flags |= flight.FlagHit
		} else {
			ev.Verdict = "miss"
		}
		m.ev = ev
	}
}

// finishBatch settles accounting for a sent batch: latency (one clock
// read pair for the whole batch, apportioned evenly), send-fault
// counters, and the pending wide events. Send faults always produce an
// event even when the packet wasn't sampled.
func (s *Server) finishBatch(sh *shard, ms []batchMsg, start time.Time) {
	per := time.Since(start) / time.Duration(len(ms))
	for i := range ms {
		m := &ms[i]
		switch {
		case m.sendShed:
			// Transient send fault — socket buffer pressure or injected
			// loss: the shard kept reading and answering, it just
			// couldn't deliver.
			s.shed.Inc()
			s.wShed.IncAt(start)
			sh.shed.Inc()
			if m.ev == nil {
				m.ev = sh.arena.New()
				m.ev.Kind = flight.KindQuery
				m.ev.Client = m.client
				m.ev.Name = s.zone
			}
			m.ev.Flags |= flight.FlagShed
			m.ev.Verdict = "shed"
		case m.sendErr:
			s.dropped.Inc()
			sh.dropped.Inc()
			s.latency.Observe(per)
			s.wLatency.ObserveAt(start, per)
			s.wBad.IncAt(start)
			if m.ev == nil {
				m.ev = sh.arena.New()
				m.ev.Kind = flight.KindQuery
				m.ev.Client = m.client
				m.ev.Name = s.zone
			}
			m.ev.Flags |= flight.FlagErr
			m.ev.Detail = "response write failed"
		default:
			s.latency.Observe(per)
			s.wLatency.ObserveAt(start, per)
			if m.ev != nil && m.ev.Flags&flight.FlagErr != 0 {
				s.wBad.IncAt(start)
			}
		}
		if m.ev != nil {
			m.ev.Unix = start.UnixNano()
			m.ev.Latency = per
			s.events.RecordOwned(m.ev)
		}
	}
}
