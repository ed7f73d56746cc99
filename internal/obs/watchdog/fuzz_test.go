package watchdog

import (
	"math"
	"testing"
)

// FuzzParseRule holds the -watch rule parser to its contract: it
// returns an error, or a rule AddRule's own checks accept (a finite
// threshold, no negative counts) whose String parses back equal. The
// committed corpus holds dnsbld's default rules, whose series carry
// `{k="v",...}` labels, and the refusals next to them.
func FuzzParseRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) || r.Window < 0 || r.Hold < 1 || r.Cooldown <= 0 {
			t.Fatalf("ParseRule(%q) = %+v, which AddRule would refuse", s, r)
		}
		again, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("String of ParseRule(%q) = %q does not parse: %v", s, r.String(), err)
		}
		if again != r {
			t.Fatalf("ParseRule(%q) = %+v, but its String %q parses to %+v", s, r, r.String(), again)
		}
	})
}
