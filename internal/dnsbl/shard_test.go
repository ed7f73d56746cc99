package dnsbl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// shardTestList lists three /24s with distinct reasons, so verdicts
// carry distinguishable return codes.
func shardTestList() *blocklist.Trie {
	list := &blocklist.Trie{}
	list.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "bot")
	list.Insert(netaddr.MustParseBlock("10.2.2.0/24"), "spam")
	list.Insert(netaddr.MustParseBlock("10.3.3.0/24"), "misc")
	return list
}

// TestListenShards binds a shard group and checks every socket landed on
// the same port (SO_REUSEPORT platforms get several, others one).
func TestListenShards(t *testing.T) {
	conns, err := ListenShards("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if supportsReusePort {
		if len(conns) != 3 {
			t.Fatalf("got %d conns, want 3 (SO_REUSEPORT supported)", len(conns))
		}
	} else if len(conns) != 1 {
		t.Fatalf("got %d conns, want 1 on a non-reuseport platform", len(conns))
	}
	addr := conns[0].LocalAddr().String()
	for i, c := range conns {
		if c.LocalAddr().String() != addr {
			t.Errorf("conn %d bound %s, want %s", i, c.LocalAddr(), addr)
		}
	}
}

// TestServeConnsEndToEnd runs the sharded server over real SO_REUSEPORT
// sockets, drives it with the ordinary client, and checks answers,
// counter rollup, shard snapshots, and graceful shutdown.
func TestServeConnsEndToEnd(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := ListenShards("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := conns[0].LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, ShardConfig{}) }()

	probes := []struct {
		addr   string
		listed bool
		code   netaddr.Addr
	}{
		{"10.1.1.9", true, CodeBot},
		{"10.2.2.200", true, CodeSpam},
		{"10.3.3.3", true, CodeGeneric},
		{"10.4.4.4", false, 0},
		{"192.0.2.1", false, 0},
	}
	for _, pr := range probes {
		listed, code, err := Lookup(addr, "bl.shard.example", netaddr.MustParseAddr(pr.addr), 2*time.Second)
		if err != nil {
			t.Fatalf("lookup %s: %v", pr.addr, err)
		}
		if listed != pr.listed || (listed && code != pr.code) {
			t.Errorf("lookup %s = listed=%v code=%s, want listed=%v code=%s",
				pr.addr, listed, code, pr.listed, pr.code)
		}
	}

	st := srv.Snapshot()
	if st.Queries < uint64(len(probes)) {
		t.Errorf("Queries = %d, want >= %d", st.Queries, len(probes))
	}
	if st.Hits < 3 {
		t.Errorf("Hits = %d, want >= 3", st.Hits)
	}
	sums := shardSeries(t, srv, len(conns))
	if pkts, fast := sums["packets"], sums["fastpath"]; pkts < float64(len(probes)) || fast != pkts {
		t.Errorf("shard rollup: packets=%v fastpath=%v, want >= %d and equal", pkts, fast, len(probes))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeConns: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not exit on cancellation")
	}
}

// shardSeries reads the per-shard counters ServeConns registers from the
// server's /metrics series, unclean_dnsbl_shard_<name>_total{shard,zone},
// and returns each name's sum over the shards. Every name must have
// exactly one series per shard.
func shardSeries(t *testing.T, srv *Server, shards int) map[string]float64 {
	t.Helper()
	vals, err := obs.Samples(srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]float64)
	for _, name := range []string{"packets", "batches", "fastpath", "slowpath", "shed", "dropped"} {
		series := "unclean_dnsbl_shard_" + name + "_total"
		n := 0
		for k := range vals {
			if strings.HasPrefix(k, series+"{") {
				n++
			}
		}
		if n != shards {
			t.Errorf("%d %s series, want one per shard (%d)", n, series, shards)
		}
		for i := 0; i < shards; i++ {
			key := fmt.Sprintf(`%s{shard="%d",zone=%q}`, series, i, srv.zone)
			v, ok := vals[key]
			if !ok {
				t.Errorf("no series %s", key)
			}
			sums[name] += v
		}
	}
	return sums
}

// TestFastSlowCodecEquivalence is the differential test holding the
// zero-copy fast path to byte-equality with the allocating slow path,
// across listed/unlisted addresses, reasons, RD values, query IDs and
// mixed-case names, and holds every answer to the 512-byte UDP limit.
func TestFastSlowCodecEquivalence(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"10.1.1.9", "10.2.2.1", "10.3.3.255", "10.4.4.4", "0.0.0.0", "255.255.255.255", "192.0.2.55"}
	for _, a := range addrs {
		for _, rd := range []bool{false, true} {
			for _, upper := range []bool{false, true} {
				name := QueryName(netaddr.MustParseAddr(a), "bl.shard.example")
				if upper {
					name = QueryName(netaddr.MustParseAddr(a), "BL.Shard.EXAMPLE")
				}
				q := &Message{ID: 0x1234, RecursionDesired: rd,
					Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}}}
				pkt, err := q.Encode()
				if err != nil {
					t.Fatal(err)
				}

				qa, qlen, qrd, ok := parseFastQuery(pkt, srv.zoneWire)
				if !ok {
					t.Fatalf("fast path rejected canonical query for %s (upper=%v)", a, upper)
				}
				if qrd != rd || qa != netaddr.MustParseAddr(a) {
					t.Fatalf("fast parse %s: addr=%s rd=%v, want %s/%v", a, qa, qrd, a, rd)
				}
				entry, listed := srv.list.Load().Lookup(qa)
				var code netaddr.Addr
				if listed {
					code = codeFor(entry.Reason)
				}
				var out [outSlotSize]byte
				n := encodeFastResponse(out[:], pkt, qlen, listed, code, srv.ttl)
				if n > maxMessage {
					t.Errorf("fast path wrote a %d-byte answer for %s", n, a)
				}

				var ev flight.Event
				slow := srv.handle(pkt, &ev)
				if slow == nil {
					t.Fatalf("slow path dropped canonical query for %s", a)
				}
				if !bytes.Equal(out[:n], slow) {
					t.Errorf("codec divergence for %s (rd=%v upper=%v):\n fast %x\n slow %x",
						a, rd, upper, out[:n], slow)
				}
			}
		}
	}
}

// TestFastParseRejectsNonFastShapes: everything the zero-copy parser
// cannot prove is the canonical shape must fall to the slow path, never
// misparse.
func TestFastParseRejectsNonFastShapes(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mut func(m *Message)) []byte {
		m := &Message{ID: 9, Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr("10.1.1.9"), "bl.shard.example"),
			Type: TypeA, Class: ClassIN}}}
		mut(m)
		pkt, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	cases := map[string][]byte{
		"response bit":  mk(func(m *Message) { m.Response = true }),
		"txt qtype":     mk(func(m *Message) { m.Questions[0].Type = TypeTXT }),
		"wrong zone":    mk(func(m *Message) { m.Questions[0].Name = "9.1.1.10.bl.other.example" }),
		"three labels":  mk(func(m *Message) { m.Questions[0].Name = "1.1.10.bl.shard.example" }),
		"octet too big": mk(func(m *Message) { m.Questions[0].Name = "9.1.1.256.bl.shard.example" }),
		"leading zero":  mk(func(m *Message) { m.Questions[0].Name = "09.1.1.10.bl.shard.example" }),
		"two questions": mk(func(m *Message) { m.Questions = append(m.Questions, m.Questions[0]) }),
		"empty":         {},
		"short header":  {0, 1, 2},
	}
	for name, pkt := range cases {
		if _, _, _, ok := parseFastQuery(pkt, srv.zoneWire); ok {
			t.Errorf("fast path accepted %s", name)
		}
	}
}

// TestShardServesLiveListAcrossReloads drives one shard by hand through
// two blocklist reloads and asserts every answer, repeats included,
// comes from the list live at the time — the no-stale-verdicts
// invariant.
func TestShardServesLiveListAcrossReloads(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.newShard(0, nil, ShardConfig{}.withDefaults(1))
	q := encodeQuery(t, 7, "10.1.1.9", "bl.shard.example")

	ask := func() (bool, netaddr.Addr) {
		t.Helper()
		m := &sh.msgs[0]
		m.inN = copy(m.in, q)
		srv.serveMsg(sh, m, srv.list.Load())
		if m.outN == 0 {
			t.Fatal("no response encoded")
		}
		resp, err := Decode(m.out[:m.outN])
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode == RCodeNXDomain {
			return false, 0
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("response has %d answers", len(resp.Answers))
		}
		d := resp.Answers[0].Data
		return true, netaddr.MakeAddr(d[0], d[1], d[2], d[3])
	}

	if listed, code := ask(); !listed || code != CodeBot {
		t.Fatalf("list 1 first ask: listed=%v code=%s, want bot", listed, code)
	}
	if listed, code := ask(); !listed || code != CodeBot {
		t.Fatalf("list 1 second ask: listed=%v code=%s", listed, code)
	}

	// Reload 1: the block vanishes. The "bot" verdict belongs to the
	// old list and must not be served.
	gone := &blocklist.Trie{}
	gone.Insert(netaddr.MustParseBlock("10.9.9.0/24"), "bot")
	srv.SetList(gone)
	if listed, _ := ask(); listed {
		t.Fatal("stale verdict: delisted address still listed")
	}

	// Reload 2: relisted under a different reason; the "miss" of list 2
	// must not be served either.
	relisted := &blocklist.Trie{}
	relisted.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "spam")
	srv.SetList(relisted)
	if listed, code := ask(); !listed || code != CodeSpam {
		t.Fatalf("after relist: listed=%v code=%s, want spam", listed, code)
	}
	if listed, code := ask(); !listed || code != CodeSpam {
		t.Fatalf("list 3 repeat ask: listed=%v code=%s", listed, code)
	}
}

// sentBatcher is a memBatcher that counts the responses each
// WriteBatch would put on the wire.
type sentBatcher struct {
	*memBatcher
	sent int
}

func (b *sentBatcher) WriteBatch(ms []batchMsg) error {
	for i := range ms {
		if ms[i].outN > 0 {
			b.sent++
		}
	}
	return nil
}

// TestRunShardIsolatesSlotPanic runs one shard loop over an in-memory
// 8-packet batch whose third slot panics: the other seven answers must
// still be written, and the panic counted once, dropped once, and left
// in the flight recorder as a panic event the SLO counts as bad.
func TestRunShardIsolatesSlotPanic(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(64)
	srv.SetFlightRecorder(rec)
	calls := 0
	srv.handleHook = func() {
		if calls++; calls == 3 {
			panic("injected slot panic")
		}
	}
	sh := srv.newShard(0, nil, ShardConfig{Batch: 8}.withDefaults(1))
	io := &sentBatcher{memBatcher: &memBatcher{q: encodeQuery(t, 7, "10.1.1.9", "bl.shard.example"), remaining: 8}}
	sh.io = io
	if err := srv.runShard(context.Background(), sh); err != nil {
		t.Fatal(err)
	}

	if io.sent != 7 {
		t.Errorf("responses written = %d, want 7", io.sent)
	}
	if st := srv.Snapshot(); st.Panics != 1 || st.Dropped != 1 || st.Queries != 7 {
		t.Errorf("counters = %+v, want 1 panic, 1 dropped, 7 queries", st)
	}
	evs := rec.Snapshot(flight.Filter{Flags: flight.FlagPanic})
	if len(evs) != 1 || evs[0].Verdict != "panic" || evs[0].Flags&flight.FlagErr == 0 {
		t.Errorf("panic events = %+v, want one with verdict panic and FlagErr", evs)
	}
	if bad := srv.wBad.Total(time.Minute); bad != 1 {
		t.Errorf("SLO bad count = %d, want 1", bad)
	}
}

// TestConnBatcherClosedMarksEveryResponse: a conn closed under a batch
// loses every response still in it, and each must be marked, so that
// Queries - Dropped keeps matching what left the socket.
func TestConnBatcherClosedMarksEveryResponse(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	ms := make([]batchMsg, 3)
	for i := range ms {
		ms[i].out = make([]byte, 16)
		ms[i].outN = 16
		ms[i].peer = conn.LocalAddr()
	}
	ms[1].outN = 0 // a dropped query: nothing to send
	if err := (&connBatcher{conn: conn}).WriteBatch(ms); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WriteBatch on a closed conn = %v, want net.ErrClosed", err)
	}
	if !ms[0].sendErr || ms[1].sendErr || !ms[2].sendErr {
		t.Fatalf("sendErr = %v %v %v, want true false true", ms[0].sendErr, ms[1].sendErr, ms[2].sendErr)
	}
}

// TestServeConnsRejectsUnreadConns: fewer shards than conns would leave
// sockets that SO_REUSEPORT still hashes clients onto but nobody reads,
// so ServeConns refuses the configuration.
func TestServeConnsRejectsUnreadConns(t *testing.T) {
	conns, err := ListenShards("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if len(conns) < 2 {
		t.Skipf("got %d conn; the platform has no SO_REUSEPORT group", len(conns))
	}
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline only bounds a server that wrongly starts serving.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.ServeConns(ctx, conns, ShardConfig{Shards: 1}); err == nil {
		t.Fatal("ServeConns with 1 shard over 2 conns = nil, want an error")
	}
}

// TestShardedTruncationAndTCPRetry checks the client's TC path end to
// end. The server's own answers always fit UDP, so a stub UDP responder
// stands in for one that truncates: it answers with the TC bit set and
// no records, the client retries over TCP against ServeTCP on the same
// port, and the verdict comes back complete. An answer the stub sends
// whole must not detour to TCP.
func TestShardedTruncationAndTCPRetry(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	whole := QueryName(netaddr.MustParseAddr("192.0.2.1"), "bl.shard.example")
	stubDone := make(chan struct{})
	go func() {
		defer close(stubDone)
		buf := make([]byte, maxMessage)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return // closed
			}
			q, err := Decode(buf[:n])
			if err != nil || len(q.Questions) != 1 {
				continue
			}
			resp := &Message{ID: q.ID, Response: true, Questions: q.Questions}
			if q.Questions[0].Name == whole {
				resp.RCode = RCodeNXDomain
			} else {
				resp.Truncated = true
			}
			if out, err := resp.Encode(); err == nil {
				pc.WriteTo(out, from)
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	tcpDone := make(chan error, 1)
	go func() { tcpDone <- srv.ServeTCP(ctx, ln) }()

	listed, code, err := Lookup(addr, "bl.shard.example", netaddr.MustParseAddr("10.2.2.9"), 2*time.Second)
	if err != nil {
		t.Fatalf("truncated lookup: %v", err)
	}
	if !listed || code != CodeSpam {
		t.Fatalf("truncated lookup = listed=%v code=%s, want spam", listed, code)
	}
	listed, _, err = Lookup(addr, "bl.shard.example", netaddr.MustParseAddr("192.0.2.1"), 2*time.Second)
	if err != nil || listed {
		t.Fatalf("whole-answer lookup = listed=%v err=%v", listed, err)
	}
	if q := srv.Snapshot().Queries; q != 1 {
		t.Errorf("ServeTCP answered %d queries, want 1: only the truncated answer retries", q)
	}

	cancel()
	pc.Close()
	<-stubDone
	select {
	case err := <-tcpDone:
		if err != nil {
			t.Errorf("tcp serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp serve did not exit on cancellation")
	}
}

// TestServeTCPDirect speaks the RFC 1035 §4.2.2 framing by hand:
// several queries on one connection, then a framing violation that must
// drop the connection without killing the listener.
func TestServeTCPDirect(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for i, probe := range []string{"10.1.1.9", "10.4.4.4"} {
		pkt := encodeQuery(t, uint16(i+1), probe, "bl.shard.example")
		framed := append([]byte{byte(len(pkt) >> 8), byte(len(pkt))}, pkt...)
		if _, err := conn.Write(framed); err != nil {
			t.Fatal(err)
		}
		var lenb [2]byte
		if _, err := readFull(conn, lenb[:]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		n := int(lenb[0])<<8 | int(lenb[1])
		buf := make([]byte, n)
		if _, err := readFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		resp, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(i+1) || !resp.Response || resp.Truncated {
			t.Fatalf("query %d: bad response header %+v", i, resp)
		}
		wantListed := i == 0
		if gotListed := resp.RCode != RCodeNXDomain; gotListed != wantListed {
			t.Fatalf("query %d: listed=%v, want %v", i, gotListed, wantListed)
		}
	}
	// Framing violation: a zero-length frame ends the connection.
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection survived a framing violation")
	}

	// The listener is still alive for new connections.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not exit on cancellation")
	}
}

// readFull is io.ReadFull without the import dance in assertions.
func readFull(conn net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}

// TestShardConfigDefaults pins the zero-value and clamping behavior the
// docs promise.
func TestShardConfigDefaults(t *testing.T) {
	cases := []struct {
		in    ShardConfig
		conns int
		want  ShardConfig
	}{
		{ShardConfig{}, 4, ShardConfig{Shards: 4, Batch: defaultBatch}},
		{ShardConfig{Shards: 2, Batch: 9999}, 1, ShardConfig{Shards: 2, Batch: maxBatch}},
	}
	for i, c := range cases {
		if got := c.in.withDefaults(c.conns); got != c.want {
			t.Errorf("case %d: withDefaults = %+v, want %+v", i, got, c.want)
		}
	}
}

// TestServeConnsSharesOneConn runs more shards than sockets (the
// portable fallback topology) and checks the loops coexist on a shared
// conn.
func TestServeConnsSharesOneConn(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{Shards: 3, Batch: 4})
	}()
	for i := 0; i < 20; i++ {
		listed, _, err := Lookup(conn.LocalAddr().String(), "bl.shard.example",
			netaddr.MustParseAddr(fmt.Sprintf("10.1.1.%d", i+1)), 2*time.Second)
		if err != nil || !listed {
			t.Fatalf("shared-conn lookup %d: listed=%v err=%v", i, listed, err)
		}
	}
	if pkts := shardSeries(t, srv, 3)["packets"]; pkts < 20 {
		t.Errorf("shard packets = %v, want >= 20", pkts)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeConns: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not exit on cancellation")
	}
}
