package dnsbl

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
)

// encodeQuery builds one well-formed query packet for addr.
func encodeQuery(t *testing.T, id uint16, addr, zone string) []byte {
	t.Helper()
	m := &Message{
		ID: id,
		Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr(addr), zone), Type: TypeA, Class: ClassIN,
		}},
	}
	pkt, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestServeGracefulShutdownDrains cancels the context while a batch of
// queries is being answered and asserts every accepted query is
// accounted for before ServeConns returns, within the deadline: each
// one either reached the client or was counted Dropped.
func TestServeGracefulShutdownDrains(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv.handleHook = func() { time.Sleep(2 * time.Millisecond) } // force a backlog

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{}) }()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const sent = 40
	for i := 0; i < sent; i++ {
		if _, err := client.Write(encodeQuery(t, uint16(i+1), "10.1.1.9", "bl.example")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the shard read (most of) the burst, then shut down.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeConns = %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not return after cancel")
	}

	// Every packet the shard accepted must be accounted for: count
	// responses arriving at the client.
	st := srv.Snapshot()
	client.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, maxMessage)
	responses := 0
	for {
		if _, err := client.Read(buf); err != nil {
			break
		}
		responses++
	}
	if uint64(responses) != st.Queries-st.Dropped {
		t.Fatalf("responses=%d, counters=%+v — accepted work not drained", responses, st)
	}
	if st.Queries == 0 {
		t.Fatal("no queries handled at all")
	}
}

// TestServeRecoversFromPanics injects panics into the request path of
// the shard loop and asserts each is counted, the server survives, and
// it keeps serving.
func TestServeRecoversFromPanics(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	remaining := 5
	srv.handleHook = func() {
		mu.Lock()
		defer mu.Unlock()
		if remaining > 0 {
			remaining--
			panic("injected request panic")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{}) }()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Write(encodeQuery(t, uint16(i+1), "10.1.1.9", "bl.example")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Dropped < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("panicked requests not recovered: %+v", srv.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if p := srv.Snapshot().Panics; p != 5 {
		t.Fatalf("Panics = %d, want 5", p)
	}
	listed, _, err := Lookup(conn.LocalAddr().String(), "bl.example", netaddr.MustParseAddr("10.1.1.7"), 2*time.Second)
	if err != nil || !listed {
		t.Fatalf("server dead after panics: listed=%v err=%v", listed, err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestServeCountsMalformed sends garbage and checks it lands in the
// malformed counter, not queries.
func TestServeCountsMalformed(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	addr, srv, stop := startDNSBL(t, list)
	defer stop()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Malformed < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("malformed = %d, want 3", srv.Snapshot().Malformed)
		}
		time.Sleep(time.Millisecond)
	}
	if q := srv.Snapshot().Queries; q != 0 {
		t.Fatalf("garbage counted as %d queries", q)
	}
}

// TestLookupIgnoresStrayPackets verifies the client skips mismatched
// datagrams (wrong ID, non-response) and still completes the lookup.
func TestLookupIgnoresStrayPackets(t *testing.T) {
	// A fake "server" that first sends chaff, then the real answer.
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, maxMessage)
		n, peer, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := Decode(buf[:n])
		if err != nil {
			return
		}
		// Chaff 1: valid response, wrong ID (the spoofing scenario).
		spoof := &Message{ID: q.ID ^ 0x5555, Response: true, RCode: RCodeNXDomain,
			Questions: q.Questions}
		b, _ := spoof.Encode()
		server.WriteTo(b, peer)
		// Chaff 2: raw garbage.
		server.WriteTo([]byte{0xde, 0xad}, peer)
		// Real answer: listed.
		real := &Message{ID: q.ID, Response: true, Questions: q.Questions,
			Answers: []Answer{{Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN,
				TTL: 60, Data: []byte{127, 0, 0, 3}}}}
		b, _ = real.Encode()
		server.WriteTo(b, peer)
	}()
	listed, code, err := Lookup(server.LocalAddr().String(), "bl.example",
		netaddr.MustParseAddr("10.1.1.1"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !listed || code != CodeBot {
		t.Fatalf("listed=%v code=%v, want bot listing despite chaff", listed, code)
	}
}

// TestLookupRetriesLostDatagrams drops the first attempt entirely and
// answers the second: the retry layer must hide the loss.
func TestLookupRetriesLostDatagrams(t *testing.T) {
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, maxMessage)
		// Swallow the first query silently.
		if _, _, err := server.ReadFrom(buf); err != nil {
			return
		}
		// Answer the second.
		n, peer, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := Decode(buf[:n])
		if err != nil {
			return
		}
		resp := &Message{ID: q.ID, Response: true, RCode: RCodeNXDomain, Questions: q.Questions}
		b, _ := resp.Encode()
		server.WriteTo(b, peer)
	}()
	listed, _, err := Lookup(server.LocalAddr().String(), "bl.example",
		netaddr.MustParseAddr("10.1.1.1"), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if listed {
		t.Fatal("NXDomain read as listed")
	}
}

// TestQueryIDsUnpredictable: 64 consecutive IDs should not be an
// arithmetic progression (the old clock-derived IDs were).
func TestQueryIDsUnpredictable(t *testing.T) {
	ids := make([]uint16, 64)
	for i := range ids {
		id, err := queryID()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	distinct := map[uint16]bool{}
	sameDelta := 0
	for i := 1; i < len(ids); i++ {
		distinct[ids[i]] = true
		if i >= 2 && ids[i]-ids[i-1] == ids[i-1]-ids[i-2] {
			sameDelta++
		}
	}
	if len(distinct) < 32 || sameDelta > len(ids)/4 {
		t.Fatalf("query IDs look predictable: %d distinct, %d repeated deltas", len(distinct), sameDelta)
	}
}
