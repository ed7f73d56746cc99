// Package phishfeed implements a phishing incident feed in the style of
// the 2006-era reporting services (CastleCops PIRT, spam-trap harvests)
// the paper draws its provided phishing reports from (§3.1). A feed is a
// dated list of incidents, each binding a reported URL to the IPv4
// address hosting it.
package phishfeed

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Incident is one reported phishing site.
type Incident struct {
	// Reported is the date the incident entered the feed.
	Reported time.Time
	// URL is the reported lure URL.
	URL string
	// Addr is the host serving the site.
	Addr netaddr.Addr
}

// Feed is an append-only incident list ordered by report date.
type Feed struct {
	incidents []Incident
}

// Add appends an incident; out-of-order dates are re-sorted on demand.
func (f *Feed) Add(inc Incident) {
	f.incidents = append(f.incidents, inc)
}

// Len returns the number of incidents.
func (f *Feed) Len() int { return len(f.incidents) }

// Incidents returns a copy of all incidents sorted by report date.
func (f *Feed) Incidents() []Incident {
	out := make([]Incident, len(f.incidents))
	copy(out, f.incidents)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Reported.Before(out[j].Reported) })
	return out
}

// AddrsBetween returns the set of hosting addresses for incidents
// reported in [from, to] inclusive.
func (f *Feed) AddrsBetween(from, to time.Time) ipset.Set {
	b := ipset.NewBuilder(0)
	for _, inc := range f.incidents {
		if !inc.Reported.Before(from) && !inc.Reported.After(to) {
			b.Add(inc.Addr)
		}
	}
	return b.Build()
}

// Write serializes the feed as "date,url,addr" lines with a header.
func (f *Feed) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# phish feed v1")
	for _, inc := range f.Incidents() {
		if strings.ContainsAny(inc.URL, ",\n\r") {
			return fmt.Errorf("phishfeed: URL %q contains a field separator", inc.URL)
		}
		fmt.Fprintf(bw, "%s,%s,%s\n", inc.Reported.Format("2006-01-02"), inc.URL, inc.Addr)
	}
	return bw.Flush()
}

// parseLine parses one incident line ("date,url,addr"). A URL holding a
// carriage return is refused, as Write refuses it: a feed that reads is
// a feed that writes back.
func parseLine(text string) (Incident, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 3 {
		return Incident{}, fmt.Errorf("want 3 fields, got %d", len(parts))
	}
	if strings.ContainsRune(parts[1], '\r') {
		return Incident{}, fmt.Errorf("URL %q contains a carriage return", parts[1])
	}
	date, err := time.Parse("2006-01-02", parts[0])
	if err != nil {
		return Incident{}, err
	}
	addr, err := netaddr.ParseAddr(parts[2])
	if err != nil {
		return Incident{}, err
	}
	return Incident{Reported: date, URL: parts[1], Addr: addr}, nil
}

// ReadPrefix parses a feed written by Write. Unknown header lines and
// comments are ignored. It tolerates the one failure mode a non-atomic
// producer leaves behind: a file truncated mid-line. When the only
// malformed line is the final non-blank one, the valid prefix is returned
// along with that line's 1-based number so the caller can log exactly
// where the feed was cut; badLine is 0 for a fully well-formed feed. A
// malformed line with valid lines after it is real corruption, not
// truncation, and is an error.
func ReadPrefix(r io.Reader) (f *Feed, badLine int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	f = &Feed{}
	line := 0
	var pendingErr error
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if pendingErr != nil {
			// The bad line was not the last one: corruption, not truncation.
			return nil, 0, pendingErr
		}
		inc, perr := parseLine(text)
		if perr != nil {
			pendingErr = fmt.Errorf("phishfeed: line %d: %v", line, perr)
			badLine = line
			continue
		}
		f.Add(inc)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return f, badLine, nil
}

// LureURL fabricates a plausible lure URL for a hosting address; used by
// the feed generator so incidents carry realistic-shaped URLs.
func LureURL(target string, addr netaddr.Addr, token uint32) string {
	return fmt.Sprintf("http://%s/%s/verify?session=%08x", addr, target, token)
}
