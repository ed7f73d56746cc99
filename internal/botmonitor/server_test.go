package botmonitor

import (
	"fmt"
	"net"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

// startServer launches a C&C server on a loopback TCP listener and returns
// its address and a shutdown function.
func startServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer("cc.example")
	go srv.Serve(l) //nolint:errcheck // returns on listener close
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
	}
}

func TestEndToEndMonitoring(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	mon := NewMonitor("#owned")
	done := make(chan struct{})
	monConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- WatchChannel(monConn, "observer", "#owned", mon, done)
	}()

	// Give the observer a moment to register and join.
	time.Sleep(50 * time.Millisecond)

	// Drive a fleet of bots through real TCP sessions.
	botAddrs := []string{"61.1.2.3", "61.1.2.99", "88.7.6.5", "200.10.20.30"}
	for i, ba := range botAddrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		bot := &Bot{
			Nick:    fmt.Sprintf("drone%d", i),
			Addr:    netaddr.MustParseAddr(ba),
			Channel: "#owned",
			Reports: []string{fmt.Sprintf("[SCAN]: exploited 130.5.5.%d", i+1)},
		}
		if err := bot.Run(conn); err != nil {
			t.Fatalf("bot %d: %v", i, err)
		}
	}

	// Wait for the monitor to see all four bots.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if mon.BotAddrs().Len() >= len(botAddrs) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	if err := <-watchErr; err != nil {
		t.Fatalf("watch error: %v", err)
	}

	bots := mon.BotAddrs()
	if bots.Len() != len(botAddrs) {
		t.Fatalf("monitor saw %d bots, want %d: %v", bots.Len(), len(botAddrs), bots)
	}
	for _, ba := range botAddrs {
		if !bots.Contains(netaddr.MustParseAddr(ba)) {
			t.Errorf("missing bot %s", ba)
		}
	}
	reported := mon.ReportedAddrs()
	if reported.Len() != len(botAddrs) {
		t.Errorf("reported addrs = %v, want %d exploited hosts", reported, len(botAddrs))
	}
}

func TestServerPingPong(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "NICK pinger\r\nUSER pinger 0 * :x\r\nPING :abc123\r\n")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	var got string
	for {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
		if containsLine(got, "PONG") {
			break
		}
	}
	if !containsLine(got, "abc123") {
		t.Fatalf("PONG did not echo token: %q", got)
	}
}

func containsLine(haystack, needle string) bool {
	return len(haystack) > 0 && len(needle) > 0 && (len(haystack) >= len(needle)) && (stringContains(haystack, needle))
}

func stringContains(h, n string) bool {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return true
		}
	}
	return false
}

func TestServerTopicFlow(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	// Botmaster sets the topic before any drone joins.
	boss, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer boss.Close()
	fmt.Fprintf(boss, "NICK boss\r\nUSER boss 0 * :addr=5.5.5.5\r\nJOIN #owned\r\nTOPIC #owned :.ddos 66.7.8.9 80\r\n")
	time.Sleep(50 * time.Millisecond)

	// A monitor joining later receives RPL_TOPIC with the standing
	// command.
	mon := NewMonitor("#owned")
	done := make(chan struct{})
	monConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	watchErr := make(chan error, 1)
	go func() { watchErr <- WatchChannel(monConn, "observer", "#owned", mon, done) }()

	// The standing command names its target, which the monitor harvests.
	target := netaddr.MustParseAddr("66.7.8.9")
	deadline := time.Now().Add(5 * time.Second)
	for !mon.ReportedAddrs().Contains(target) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	if err := <-watchErr; err != nil {
		t.Fatal(err)
	}
	if !mon.ReportedAddrs().Contains(target) {
		t.Fatal("monitor never received the standing topic")
	}
}

func TestServerRelaysBetweenMembers(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	fmt.Fprintf(a, "NICK alpha\r\nUSER alpha 0 * :x\r\nJOIN #c\r\n")
	time.Sleep(30 * time.Millisecond)
	fmt.Fprintf(b, "NICK beta\r\nUSER beta 0 * :x\r\nJOIN #c\r\nPRIVMSG #c :hello-from-beta\r\n")

	a.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8192)
	var got string
	for !stringContains(got, "hello-from-beta") {
		n, err := a.Read(buf)
		if err != nil {
			t.Fatalf("alpha never received relay: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	if !stringContains(got, "beta!") {
		t.Errorf("relayed line missing sender prefix: %q", got)
	}
}
