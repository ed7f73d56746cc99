package botmonitor

import (
	"testing"
	"testing/quick"
)

func TestParseMessageForms(t *testing.T) {
	cases := []struct {
		line string
		want Message
	}{
		{
			"PING :token",
			Message{Command: "PING", Trailing: "token", HasTrailing: true},
		},
		{
			":bot1!x@1.2.3.4 JOIN #owned",
			Message{Prefix: "bot1!x@1.2.3.4", Command: "JOIN", Params: []string{"#owned"}},
		},
		{
			":bot1!x@1.2.3.4 PRIVMSG #owned :hello world",
			Message{Prefix: "bot1!x@1.2.3.4", Command: "PRIVMSG", Params: []string{"#owned"}, Trailing: "hello world", HasTrailing: true},
		},
		{
			":irc.example 001 nick :Welcome",
			Message{Prefix: "irc.example", Command: "001", Params: []string{"nick"}, Trailing: "Welcome", HasTrailing: true},
		},
		{
			"join #chan", // lowercase command normalizes
			Message{Command: "JOIN", Params: []string{"#chan"}},
		},
		{
			"PRIVMSG #c :", // empty but present trailing
			Message{Command: "PRIVMSG", Params: []string{"#c"}, Trailing: "", HasTrailing: true},
		},
	}
	for _, c := range cases {
		got, err := ParseMessage(c.line)
		if err != nil {
			t.Errorf("ParseMessage(%q): %v", c.line, err)
			continue
		}
		if got.Prefix != c.want.Prefix || got.Command != c.want.Command ||
			got.Trailing != c.want.Trailing || got.HasTrailing != c.want.HasTrailing ||
			len(got.Params) != len(c.want.Params) {
			t.Errorf("ParseMessage(%q) = %+v, want %+v", c.line, got, c.want)
			continue
		}
		for i := range got.Params {
			if got.Params[i] != c.want.Params[i] {
				t.Errorf("ParseMessage(%q) param %d = %q, want %q", c.line, i, got.Params[i], c.want.Params[i])
			}
		}
	}
}

func TestParseMessageRejects(t *testing.T) {
	for _, line := range []string{"", "\r\n", ":prefixonly", "   "} {
		if _, err := ParseMessage(line); err == nil {
			t.Errorf("ParseMessage(%q) succeeded, want error", line)
		}
	}
}

func TestMessageStringRoundTrip(t *testing.T) {
	lines := []string{
		"PING :token",
		":bot1!x@1.2.3.4 JOIN #owned",
		":bot1!x@1.2.3.4 PRIVMSG #owned :scan report 1.2.3.4",
		"NICK drone42",
	}
	for _, line := range lines {
		m, err := ParseMessage(line)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.String(); got != line {
			t.Errorf("round trip %q -> %q", line, got)
		}
	}
}

func TestMessageStringReparses(t *testing.T) {
	f := func(prefixRaw, cmdRaw, p1, trailing string, hasTrailing bool) bool {
		clean := func(s string, allowSpace bool) string {
			out := make([]rune, 0, len(s))
			for _, r := range s {
				if r == '\r' || r == '\n' || r == 0 {
					continue
				}
				if !allowSpace && (r == ' ' || r == ':') {
					continue
				}
				out = append(out, r)
			}
			return string(out)
		}
		m := Message{
			Prefix:      clean(prefixRaw, false),
			Command:     "CMD", // fixed valid command; fuzzing targets params
			Trailing:    clean(trailing, true),
			HasTrailing: hasTrailing,
		}
		if p := clean(p1, false); p != "" {
			m.Params = append(m.Params, p)
		}
		got, err := ParseMessage(m.String())
		if err != nil {
			return false
		}
		if got.Prefix != m.Prefix || got.Command != m.Command || len(got.Params) != len(m.Params) {
			return false
		}
		if m.HasTrailing && got.Trailing != m.Trailing {
			// Trailing with leading/trailing spaces may re-tokenize; only
			// require equality when trailing has no leading space issue.
			return got.HasTrailing
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHostNickOf(t *testing.T) {
	if HostOf("bot!u@1.2.3.4") != "1.2.3.4" {
		t.Error("HostOf wrong")
	}
	if HostOf("irc.server.example") != "" {
		t.Error("HostOf of server prefix should be empty")
	}
}
