// Package report implements the paper's report model (§3.1): a report is a
// set of IP addresses describing a particular phenomenon over some period,
// differentiated by a tag, a class of unclean data, a collection type
// (provided vs observed), and a validity window.
package report

import (
	"fmt"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Class is the class of unclean data a report describes (§3.1).
type Class uint8

// Report classes. Control and the blocking-analysis partitions have no
// unclean class and use ClassNone (printed "N/A" like the paper's tables).
const (
	ClassNone Class = iota
	ClassBots
	ClassPhishing
	ClassScanning
	ClassSpamming
	ClassSpecial // e.g. the union report R_unclean in Table 2
)

var classNames = [...]string{
	ClassNone:     "N/A",
	ClassBots:     "Bots",
	ClassPhishing: "Phishing",
	ClassScanning: "Scanning",
	ClassSpamming: "Spam",
	ClassSpecial:  "Special",
}

// String returns the class name as printed in the paper's tables.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "Unknown"
}

// ParseClass parses a class name (case-sensitive, as emitted by String).
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return ClassNone, fmt.Errorf("report: unknown class %q", s)
}

// Type distinguishes provided reports (collected by external parties) from
// observed reports (generated from the observed network's traffic logs).
type Type uint8

// Report types.
const (
	Provided Type = iota
	Observed
)

// String returns "Provided" or "Observed".
func (t Type) String() string {
	if t == Provided {
		return "Provided"
	}
	return "Observed"
}

// ParseType parses a type name.
func ParseType(s string) (Type, error) {
	switch s {
	case "Provided":
		return Provided, nil
	case "Observed":
		return Observed, nil
	}
	return Provided, fmt.Errorf("report: unknown type %q", s)
}

// Report is a tagged set of IP addresses: the paper's R_T.
type Report struct {
	// Tag identifies the report, e.g. "bot", "scan", "bot-test".
	Tag string
	// Type records how the data was collected.
	Type Type
	// Class is the class of unclean phenomenon reported.
	Class Class
	// ValidFrom and ValidTo bound the period the report covers
	// (inclusive dates).
	ValidFrom, ValidTo time.Time
	// Method is the free-text reporting-method column of Table 1.
	Method string
	// Addrs is the report membership.
	Addrs ipset.Set
}

// Size returns |R|, the report cardinality.
func (r *Report) Size() int { return r.Addrs.Len() }

// Sanitize returns a copy of the report with reserved addresses and
// addresses inside the observed network removed — the filtering step of
// §3.2. observed may be nil when there is no observed network to exclude.
func (r *Report) Sanitize(observed []netaddr.Block) *Report {
	clean := r.Addrs.Filter(func(a netaddr.Addr) bool {
		if netaddr.IsReserved(a) {
			return false
		}
		for _, b := range observed {
			if b.Contains(a) {
				return false
			}
		}
		return true
	})
	out := *r
	out.Addrs = clean
	return &out
}

// Validity renders the valid-dates column ("2006/10/01-2006/10/14", or a
// single date when the window is one day).
func (r *Report) Validity() string {
	const layout = "2006/01/02"
	if r.ValidFrom.Equal(r.ValidTo) {
		return r.ValidFrom.Format(layout)
	}
	return r.ValidFrom.Format(layout) + "-" + r.ValidTo.Format(layout)
}

// String summarizes the report one-per-line table style.
func (r *Report) String() string {
	return fmt.Sprintf("R_%s [%s/%s] %s |R|=%d", r.Tag, r.Type, r.Class, r.Validity(), r.Size())
}
