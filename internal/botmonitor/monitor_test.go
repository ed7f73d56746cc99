package botmonitor

import (
	"strings"
	"testing"

	"unclean/internal/netaddr"
)

func TestMonitorHarvestsJoins(t *testing.T) {
	m := NewMonitor("#owned")
	stream := strings.Join([]string{
		":a!x@12.34.56.78 JOIN #owned",
		":b!x@99.88.77.66 JOIN #owned",
		":c!x@10.0.0.1 JOIN #owned",     // RFC1918: discarded
		":d!x@cloaked.host JOIN #owned", // not an IP: discarded
		":e!x@5.5.5.5 JOIN #other",      // other channel: discarded
		":irc.server 001 mon :Welcome",  // server numeric: no host
	}, "\r\n")
	if err := m.Run(strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	bots := m.BotAddrs()
	if bots.Len() != 2 {
		t.Fatalf("BotAddrs = %v, want 2 addresses", bots)
	}
	for _, want := range []string{"12.34.56.78", "99.88.77.66"} {
		if !bots.Contains(netaddr.MustParseAddr(want)) {
			t.Errorf("missing %s", want)
		}
	}
}

func TestMonitorHarvestsPrivmsgBodies(t *testing.T) {
	m := NewMonitor("#owned")
	m.ObserveLine(":a!x@12.34.56.78 PRIVMSG #owned :[SCAN]: exploited 200.1.2.3 and 201.4.5.6.")
	m.ObserveLine(":a!x@12.34.56.78 PRIVMSG #owned :version 1.2.3 build 4") // 1.2.3 is not quad
	bots := m.BotAddrs()
	if bots.Len() != 1 || !bots.Contains(netaddr.MustParseAddr("12.34.56.78")) {
		t.Fatalf("BotAddrs = %v", bots)
	}
	reported := m.ReportedAddrs()
	if reported.Len() != 2 {
		t.Fatalf("ReportedAddrs = %v, want 2", reported)
	}
	if all := bots.Union(reported); all.Len() != 3 {
		t.Fatalf("both harvests = %v, want 3", all)
	}
}

func TestMonitorAllChannels(t *testing.T) {
	m := NewMonitor("")
	m.ObserveLine(":a!x@1.1.1.1 JOIN #one")
	m.ObserveLine(":b!x@2.2.2.2 JOIN #two")
	if m.BotAddrs().Len() != 2 {
		t.Fatalf("wildcard monitor missed a channel")
	}
}

func TestMonitorChannelCaseInsensitive(t *testing.T) {
	m := NewMonitor("#Owned")
	m.ObserveLine(":a!x@1.1.1.1 JOIN #owned")
	m.ObserveLine(":a!x@2.2.2.2 PRIVMSG #OWNED :hi")
	if m.BotAddrs().Len() != 2 {
		t.Fatal("channel match should be case-insensitive")
	}
}

func TestMonitorJoinTrailingForm(t *testing.T) {
	// Some clients send "JOIN :#chan".
	m := NewMonitor("#owned")
	m.ObserveLine(":a!x@3.3.3.3 JOIN :#owned")
	if m.BotAddrs().Len() != 1 {
		t.Fatal("JOIN with trailing channel not handled")
	}
}

func TestMonitorStats(t *testing.T) {
	m := NewMonitor("#owned")
	m.ObserveLine(":a!x@1.1.1.1 JOIN #owned")
	m.ObserveLine(":garbageprefixwithoutcommand")
	lines, malformed := m.Stats()
	if lines != 2 || malformed != 1 {
		t.Fatalf("Stats = %d, %d, want 2, 1", lines, malformed)
	}
}

func TestMonitorHarvestsTopics(t *testing.T) {
	m := NewMonitor("#owned")
	m.ObserveLine(":boss!x@5.5.5.5 TOPIC #owned :.advscan lsass 150 5 0 -r")
	m.ObserveLine(":boss!x@6.6.6.6 TOPIC #other :.ddos 66.7.8.9 80") // other channel
	// The topic setter's host is harvested like any other participant.
	if bots := m.BotAddrs(); bots.Len() != 1 || !bots.Contains(netaddr.MustParseAddr("5.5.5.5")) {
		t.Errorf("BotAddrs = %v, want only the topic setter 5.5.5.5", bots)
	}
	if !m.ReportedAddrs().IsEmpty() {
		t.Errorf("ReportedAddrs = %v, want none from another channel's topic", m.ReportedAddrs())
	}
	// Addresses in a topic, set or relayed as RPL_TOPIC, are harvested as
	// reported victims.
	m.ObserveLine(":boss!x@5.5.5.5 TOPIC #owned :.ddos 66.7.8.9 80")
	m.ObserveLine(":cc.server 332 drone1 #owned :.ddos 77.8.9.10 80")
	m.ObserveLine(":cc.server 332 drone1 #other :.ddos 88.9.10.11 80")
	reported := m.ReportedAddrs()
	if reported.Len() != 2 || !reported.Contains(netaddr.MustParseAddr("66.7.8.9")) ||
		!reported.Contains(netaddr.MustParseAddr("77.8.9.10")) {
		t.Errorf("ReportedAddrs = %v, want 66.7.8.9 and 77.8.9.10", reported)
	}
}

func TestMonitorAccumulatesAcrossSnapshots(t *testing.T) {
	m := NewMonitor("#owned")
	m.ObserveLine(":a!x@1.1.1.1 JOIN #owned")
	if m.BotAddrs().Len() != 1 {
		t.Fatal("first snapshot wrong")
	}
	m.ObserveLine(":b!x@2.2.2.2 JOIN #owned")
	if m.BotAddrs().Len() != 2 {
		t.Fatal("snapshot consumed earlier observations")
	}
}
