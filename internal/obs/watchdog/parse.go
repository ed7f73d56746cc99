package watchdog

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseRule parses the flag-friendly rule syntax:
//
//	NAME: SERIES OP VALUE [over=N] [hold=N] [cooldown=DUR]
//
// e.g.
//
//	shed: unclean_dnsbl_shed_1m_permille{zone="bl.unclean.example"} > 200 hold=3 cooldown=10m
//	goroutines: unclean_runtime_goroutines > 500 over=30 hold=3
//
// SERIES is spelled as the text exposition (/metrics) prints it, labels
// included, and holds no whitespace. OP is one of > < >= <=; VALUE is a
// finite number. over=N turns the rule into a slope rule (growth over
// the last N ticks), hold=N requires N consecutive breaching ticks,
// cooldown=DUR is a Go duration. Options may come in any order.
// Rule.String() round-trips through ParseRule.
func ParseRule(s string) (Rule, error) {
	name, rest, ok := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return Rule{}, fmt.Errorf("watchdog: rule %q: want 'NAME: SERIES OP VALUE [over=N] [hold=N] [cooldown=DUR]'", s)
	}
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return Rule{}, fmt.Errorf("watchdog: rule %s: want 'SERIES OP VALUE' after the colon, got %q", name, strings.TrimSpace(rest))
	}
	r := Rule{Name: name, Signal: fields[0]}
	switch fields[1] {
	case ">":
		r.Op = OpGT
	case "<":
		r.Op = OpLT
	case ">=":
		r.Op = OpGE
	case "<=":
		r.Op = OpLE
	default:
		return Rule{}, fmt.Errorf("watchdog: rule %s: operator %q, want > < >= <=", name, fields[1])
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Rule{}, fmt.Errorf("watchdog: rule %s: threshold %q: %w", name, fields[2], err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Rule{}, fmt.Errorf("watchdog: rule %s: threshold %q must be finite", name, fields[2])
	}
	r.Threshold = v
	for _, opt := range fields[3:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Rule{}, fmt.Errorf("watchdog: rule %s: option %q, want key=value", name, opt)
		}
		switch key {
		case "over":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("watchdog: rule %s: over=%q, want a positive tick count", name, val)
			}
			r.Window = n
		case "hold":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("watchdog: rule %s: hold=%q, want a positive tick count", name, val)
			}
			r.Hold = n
		case "cooldown":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("watchdog: rule %s: cooldown=%q, want a Go duration", name, val)
			}
			r.Cooldown = d
		default:
			return Rule{}, fmt.Errorf("watchdog: rule %s: unknown option %q (want over, hold, or cooldown)", name, key)
		}
	}
	return r.withDefaults(), nil
}
