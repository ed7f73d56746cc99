package dnsbl

import (
	"context"
	"net"
	"testing"
	"testing/quick"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

func TestQueryNameRoundTrip(t *testing.T) {
	a := netaddr.MustParseAddr("127.1.135.14")
	name := QueryName(a, "bl.example")
	if name != "14.135.1.127.bl.example" {
		t.Fatalf("QueryName = %q", name)
	}
	got, ok := ParseQueryName(name, "bl.example")
	if !ok || got != a {
		t.Fatalf("ParseQueryName = %v, %v", got, ok)
	}
}

func TestQueryNameQuick(t *testing.T) {
	f := func(raw uint32) bool {
		a := netaddr.Addr(raw)
		got, ok := ParseQueryName(QueryName(a, "zen.test."), "ZEN.test")
		return ok && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseQueryNameRejects(t *testing.T) {
	bad := []string{
		"bl.example",           // zone only
		"1.2.3.bl.example",     // 3 octets
		"1.2.3.4.5.bl.example", // 5 octets
		"256.2.3.4.bl.example", // bad octet
		"1.2.3.4.other.zone",   // wrong zone
		"x.2.3.4.bl.example",   // non-numeric
	}
	for _, name := range bad {
		if _, ok := ParseQueryName(name, "bl.example"); ok {
			t.Errorf("ParseQueryName accepted %q", name)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:               0xbeef,
		RecursionDesired: true,
		Questions: []Question{{
			Name: "2.0.0.10.bl.example", Type: TypeA, Class: ClassIN,
		}},
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Response || !got.RecursionDesired || len(got.Questions) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Questions[0].Name != m.Questions[0].Name {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
}

func TestMessageWithCompressedAnswer(t *testing.T) {
	m := &Message{
		ID: 7, Response: true, Authoritative: true,
		Questions: []Question{{Name: "2.0.0.10.bl.example", Type: TypeA, Class: ClassIN}},
		Answers: []Answer{{
			Name: "2.0.0.10.bl.example", Type: TypeA, Class: ClassIN,
			TTL: 300, Data: []byte{127, 0, 0, 2},
		}},
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	a := got.Answers[0]
	if a.Name != "2.0.0.10.bl.example" || a.TTL != 300 || len(a.Data) != 4 || a.Data[3] != 2 {
		t.Fatalf("answer = %+v", a)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		// Header claiming 100 questions.
		{0, 1, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0},
		// One question but empty body.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Compression pointer loop.
	loop := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1}
	if _, err := Decode(loop); err == nil {
		t.Error("pointer loop accepted")
	}
}

func TestEncodeNameValidation(t *testing.T) {
	if _, err := encodeName("a..b"); err == nil {
		t.Error("empty label accepted")
	}
	long := make([]byte, 70)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := encodeName(string(long) + ".x"); err == nil {
		t.Error("64+ byte label accepted")
	}
}

// startDNSBL serves a test zone on a loopback UDP socket.
func startDNSBL(t *testing.T, list *blocklist.Trie) (addr string, srv *Server, stop func()) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err = NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{}) //nolint:errcheck // returns on close
	}()
	return conn.LocalAddr().String(), srv, func() {
		cancel()
		<-done
		conn.Close()
	}
}

func TestEndToEndLookup(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot-test evidence")
	list.Insert(netaddr.MustParseBlock("20.2.0.0/16"), "spam source")
	addr, srv, stop := startDNSBL(t, list)
	defer stop()

	listed, code, err := Lookup(addr, "bl.example", netaddr.MustParseAddr("10.1.1.200"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !listed || code != CodeBot {
		t.Fatalf("listed=%v code=%v, want bot code", listed, code)
	}
	listed, code, err = Lookup(addr, "bl.example", netaddr.MustParseAddr("20.2.9.9"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !listed || code != CodeSpam {
		t.Fatalf("listed=%v code=%v, want spam code", listed, code)
	}
	listed, _, err = Lookup(addr, "bl.example", netaddr.MustParseAddr("99.9.9.9"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if listed {
		t.Fatal("unlisted address reported listed")
	}
	st := srv.Snapshot()
	if st.Queries != 3 || st.Hits != 2 {
		t.Fatalf("stats = %d queries, %d hits", st.Queries, st.Hits)
	}
}

func TestServerLiveReload(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	addr, srv, stop := startDNSBL(t, list)
	defer stop()
	probe := netaddr.MustParseAddr("50.5.5.5")
	if listed, _, _ := Lookup(addr, "bl.example", probe, 2*time.Second); listed {
		t.Fatal("probe listed before reload")
	}
	srv.SetList(blocklist.FromSet(mustSet("50.5.5.5"), 24, "scan"))
	listed, code, err := Lookup(addr, "bl.example", probe, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !listed || code != CodeScan {
		t.Fatalf("after reload: listed=%v code=%v", listed, code)
	}
}

func TestServerIgnoresGarbagePackets(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	addr, _, stop := startDNSBL(t, list)
	defer stop()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server drops garbage; a real query afterwards still works.
	listed, _, err := Lookup(addr, "bl.example", netaddr.MustParseAddr("10.1.1.1"), 2*time.Second)
	if err != nil || !listed {
		t.Fatalf("server wedged after garbage: %v %v", listed, err)
	}
}

func TestNewServerValidation(t *testing.T) {
	list := &blocklist.Trie{}
	if _, err := NewServer("", list, time.Minute); err == nil {
		t.Error("empty zone accepted")
	}
	if _, err := NewServer("z", nil, time.Minute); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := NewServer("z", list, 0); err == nil {
		t.Error("zero TTL accepted")
	}
	// A zone whose query names overflow the DNS name limit: the fast
	// codec would answer queries the slow path cannot encode.
	if _, err := NewServer(longestZone+"dddddddddddddddd", list, time.Minute); err == nil {
		t.Error("zone too long for 255.255.255.255 queries accepted")
	}
	if _, err := NewServer(longestZone, list, time.Minute); err != nil {
		t.Errorf("longest legal zone rejected: %v", err)
	}
}

func mustSet(s string) ipset.Set { return ipset.MustParse(s) }
