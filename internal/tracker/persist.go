package tracker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"unclean/internal/netaddr"
)

// State persistence: a long-running tracker checkpoints its evidence so
// restarts do not forget months of observations. The format is
// line-oriented text (one block per line) so checkpoints diff cleanly
// and survive hand inspection:
//
//	# unclean tracker v1
//	bits: 24
//	halflife: 1008h0m0s
//	tau: 4
//	now: 2006-09-30T00:00:00Z
//	blocks:
//	10.1.1.0 2006-09-28T00:00:00Z 3.5,0,1.25,0
//
// Block lines carry the base address, the evidence timestamp, and the
// four dimension counts as of that timestamp.

const persistMagic = "# unclean tracker v1"

// MaxLineBytes bounds one checkpoint line. A line holds one block's
// state (~80 bytes) or a header, so even pathological float renderings
// fit with orders of magnitude to spare; anything longer is corruption,
// reported with its line number instead of the scanner's bare
// "token too long".
const MaxLineBytes = 1 << 20

// Save writes the tracker state to w.
func (t *Tracker) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, persistMagic)
	fmt.Fprintf(bw, "bits: %d\n", t.cfg.Bits)
	fmt.Fprintf(bw, "halflife: %s\n", t.cfg.HalfLife)
	fmt.Fprintf(bw, "tau: %g\n", t.cfg.Tau)
	fmt.Fprintf(bw, "now: %s\n", t.now.UTC().Format(time.RFC3339Nano))
	fmt.Fprintln(bw, "blocks:")
	bases := make([]netaddr.Addr, 0, len(t.blocks))
	for base := range t.blocks {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		b := t.blocks[base]
		counts := make([]string, len(b.counts))
		for d, c := range b.counts {
			counts[d] = strconv.FormatFloat(c, 'g', -1, 64)
		}
		fmt.Fprintf(bw, "%s %s %s\n", base, b.asOf.UTC().Format(time.RFC3339Nano),
			strings.Join(counts, ","))
	}
	return bw.Flush()
}

// Load reconstructs a tracker from a Save checkpoint.
func Load(r io.Reader) (*Tracker, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, scanErr(1, err)
		}
		return nil, fmt.Errorf("tracker: bad checkpoint magic")
	}
	if strings.TrimSpace(sc.Text()) != persistMagic {
		return nil, fmt.Errorf("tracker: bad checkpoint magic")
	}
	cfg := Config{}
	var now time.Time
	inBlocks := false
	var t *Tracker
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !inBlocks {
			if text == "blocks:" {
				var err error
				t, err = New(cfg)
				if err != nil {
					return nil, fmt.Errorf("tracker: line %d: %w", line, err)
				}
				t.now = now
				inBlocks = true
				continue
			}
			key, value, ok := strings.Cut(text, ":")
			if !ok {
				return nil, fmt.Errorf("tracker: line %d: malformed header %q", line, text)
			}
			value = strings.TrimSpace(value)
			var err error
			switch key {
			case "bits":
				cfg.Bits, err = strconv.Atoi(value)
			case "halflife":
				cfg.HalfLife, err = time.ParseDuration(value)
			case "tau":
				cfg.Tau, err = strconv.ParseFloat(value, 64)
			case "now":
				now, err = parseTime(value)
			default:
				err = fmt.Errorf("unknown header key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("tracker: line %d: %v", line, err)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("tracker: line %d: want 3 fields, got %d", line, len(fields))
		}
		base, err := netaddr.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("tracker: line %d: %v", line, err)
		}
		if base.Mask(cfg.Bits) != base {
			return nil, fmt.Errorf("tracker: line %d: base %s not /%d aligned", line, base, cfg.Bits)
		}
		asOf, err := parseTime(fields[1])
		if err != nil {
			return nil, fmt.Errorf("tracker: line %d: %v", line, err)
		}
		parts := strings.Split(fields[2], ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("tracker: line %d: want 4 counts, got %d", line, len(parts))
		}
		b := &blockState{asOf: asOf}
		for d, p := range parts {
			c, err := strconv.ParseFloat(p, 64)
			if err != nil || !(c >= 0) || math.IsInf(c, 1) {
				return nil, fmt.Errorf("tracker: line %d: bad count %q", line, p)
			}
			b.counts[d] = c
		}
		if _, dup := t.blocks[base]; dup {
			return nil, fmt.Errorf("tracker: line %d: duplicate block %s", line, base)
		}
		t.blocks[base] = b
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(line+1, err)
	}
	if t == nil {
		return nil, fmt.Errorf("tracker: checkpoint missing blocks section")
	}
	return t, nil
}

// parseTime parses an RFC 3339 timestamp that Save can write back: one
// whose year in UTC, the zone Save writes, still has four digits.
func parseTime(s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, err
	}
	if y := t.UTC().Year(); y < 0 || y > 9999 {
		return time.Time{}, fmt.Errorf("time %s falls in year %d in UTC", s, y)
	}
	return t, nil
}

// scanErr tags a scanner failure with the line it occurred on, naming
// the limit when the line overflowed it.
func scanErr(line int, err error) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("tracker: line %d: exceeds %d-byte line limit: %w", line, MaxLineBytes, err)
	}
	return fmt.Errorf("tracker: line %d: %w", line, err)
}
