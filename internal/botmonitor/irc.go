// Package botmonitor implements the bot-report collection path: a minimal
// IRC protocol (the RFC 1459 subset botnet C&C channels used in 2006), a
// command-and-control channel monitor that harvests bot IP addresses from
// live IRC traffic, and a small in-process C&C server + bot fleet for
// driving it. The paper's provided bot reports were "collected by
// observing IP addresses communicating on IRC channels" (§1); this package
// is that observer.
package botmonitor

import (
	"fmt"
	"strings"
)

// Message is one IRC protocol line:
//
//	[:prefix] COMMAND param1 param2 ... [:trailing]
type Message struct {
	// Prefix is the origin without the leading ':', e.g.
	// "nick!user@1.2.3.4" or a server name. Empty if absent.
	Prefix string
	// Command is the verb ("JOIN", "PRIVMSG", "332", ...).
	Command string
	// Params are the middle parameters.
	Params []string
	// Trailing is the final parameter after " :", which may contain
	// spaces. HasTrailing distinguishes empty-but-present from absent.
	Trailing    string
	HasTrailing bool
}

// ParseMessage parses one IRC line, dropping a trailing CR/LF. A CR or
// LF inside the line would end it on the wire, so it is refused.
func ParseMessage(line string) (Message, error) {
	var m Message
	rest := strings.TrimRight(line, "\r\n")
	if rest == "" {
		return m, fmt.Errorf("botmonitor: empty IRC line")
	}
	if strings.ContainsAny(rest, "\r\n") {
		return m, fmt.Errorf("botmonitor: CR or LF inside IRC line %q", line)
	}
	if rest[0] == ':' {
		// An empty prefix (": CMD") would vanish from String.
		sp := strings.IndexByte(rest, ' ')
		if sp <= 1 {
			return m, fmt.Errorf("botmonitor: IRC line %q has an empty prefix or only a prefix", line)
		}
		m.Prefix = rest[1:sp]
		rest = rest[sp+1:]
	}
	// Trailing parameter.
	if i := strings.Index(rest, " :"); i >= 0 {
		m.Trailing = rest[i+2:]
		m.HasTrailing = true
		rest = rest[:i]
	}
	// IRC separates parameters by ASCII spaces only (RFC 1459 §2.3.1);
	// any other whitespace, Unicode spaces included, is parameter text.
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' })
	if len(fields) == 0 {
		return m, fmt.Errorf("botmonitor: IRC line %q has no command", line)
	}
	m.Command = strings.ToUpper(fields[0])
	m.Params = fields[1:]
	return m, nil
}

// String serializes the message as a wire line without terminator.
func (m Message) String() string {
	var b strings.Builder
	if m.Prefix != "" {
		b.WriteByte(':')
		b.WriteString(m.Prefix)
		b.WriteByte(' ')
	}
	b.WriteString(m.Command)
	for _, p := range m.Params {
		b.WriteByte(' ')
		b.WriteString(p)
	}
	if m.HasTrailing {
		b.WriteString(" :")
		b.WriteString(m.Trailing)
	}
	return b.String()
}

// Param returns the i-th middle parameter or "" if absent.
func (m Message) Param(i int) string {
	if i < 0 || i >= len(m.Params) {
		return ""
	}
	return m.Params[i]
}

// HostOf extracts the host portion of a nick!user@host prefix; it returns
// "" for server prefixes (no '@').
func HostOf(prefix string) string {
	at := strings.LastIndexByte(prefix, '@')
	if at < 0 {
		return ""
	}
	return prefix[at+1:]
}
