package botmonitor

import (
	"bufio"
	"io"
	"strings"
	"sync"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Monitor watches an IRC traffic stream on a C&C channel and harvests the
// IP addresses of bots. Two harvesting paths mirror how such monitoring
// worked in practice:
//
//   - hostmask harvesting: bots appear as nick!user@a.b.c.d in JOIN and
//     PRIVMSG prefixes;
//   - payload harvesting: bots report scan/exploit results into the
//     channel ("[SCAN]: exploited 12.34.56.78"), identifying further
//     compromised addresses.
//
// Addresses inside reserved space are discarded (cloaked or spoofed
// hostmasks frequently decode to garbage).
//
// A Monitor is safe for concurrent use: WatchChannel feeds it from a
// connection goroutine while callers poll the harvested sets.
type Monitor struct {
	channel string

	mu        sync.Mutex
	hostAddrs *ipset.Builder
	bodyAddrs *ipset.Builder
	lines     int
	malformed int
}

// NewMonitor builds a monitor for one channel name (e.g. "#owned").
// An empty channel monitors all channels in the stream.
func NewMonitor(channel string) *Monitor {
	return &Monitor{
		channel:   channel,
		hostAddrs: ipset.NewBuilder(0),
		bodyAddrs: ipset.NewBuilder(0),
	}
}

// ObserveLine feeds one raw IRC line into the monitor.
func (m *Monitor) ObserveLine(line string) {
	msg, err := ParseMessage(line)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lines++
	if err != nil {
		m.malformed++
		return
	}
	m.observe(msg)
}

func (m *Monitor) observe(msg Message) {
	switch msg.Command {
	case "JOIN":
		// JOIN's channel may be a middle param or the trailing.
		ch := msg.Param(0)
		if ch == "" {
			ch = msg.Trailing
		}
		if !m.wantChannel(ch) {
			return
		}
		m.harvestPrefix(msg.Prefix)
	case "PRIVMSG", "NOTICE":
		if !m.wantChannel(msg.Param(0)) {
			return
		}
		m.harvestPrefix(msg.Prefix)
		m.harvestBody(msg.Trailing)
	case "TOPIC":
		if !m.wantChannel(msg.Param(0)) {
			return
		}
		m.harvestPrefix(msg.Prefix)
		m.harvestBody(msg.Trailing)
	case "332": // RPL_TOPIC: server relaying the standing topic on join
		if !m.wantChannel(msg.Param(1)) {
			return
		}
		m.harvestBody(msg.Trailing)
	}
}

func (m *Monitor) wantChannel(ch string) bool {
	return m.channel == "" || strings.EqualFold(ch, m.channel)
}

func (m *Monitor) harvestPrefix(prefix string) {
	host := HostOf(prefix)
	if host == "" {
		return
	}
	if a, err := netaddr.ParseAddr(host); err == nil && !netaddr.IsReserved(a) {
		m.hostAddrs.Add(a)
	}
}

// harvestBody scans free text for dotted-quad addresses.
func (m *Monitor) harvestBody(text string) {
	for _, tok := range strings.FieldsFunc(text, func(r rune) bool {
		return !(r == '.' || (r >= '0' && r <= '9'))
	}) {
		tok = strings.Trim(tok, ".") // sentence punctuation sticks to tokens
		if strings.Count(tok, ".") != 3 {
			continue
		}
		if a, err := netaddr.ParseAddr(tok); err == nil && !netaddr.IsReserved(a) {
			m.bodyAddrs.Add(a)
		}
	}
}

// Run consumes an entire IRC stream from r until EOF.
func (m *Monitor) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 16*1024), 16*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			m.ObserveLine(line)
		}
	}
	return sc.Err()
}

// BotAddrs returns the addresses harvested from hostmasks: hosts directly
// observed communicating with the C&C.
func (m *Monitor) BotAddrs() ipset.Set {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshot(m.hostAddrs)
}

// ReportedAddrs returns the addresses harvested from message bodies:
// hosts the bots claim to have compromised or probed.
func (m *Monitor) ReportedAddrs() ipset.Set {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshot(m.bodyAddrs)
}

// Stats reports lines consumed and lines that failed to parse.
func (m *Monitor) Stats() (lines, malformed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lines, m.malformed
}

// snapshot builds the current set without consuming the builder.
func snapshot(b *ipset.Builder) ipset.Set {
	s := b.Build()
	b.AddSet(s) // re-seed the builder so later observations accumulate
	return s
}
