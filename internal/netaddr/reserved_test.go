package netaddr

import (
	"slices"
	"testing"
)

func TestIsReserved(t *testing.T) {
	reserved := []string{
		"0.1.2.3", "10.0.0.1", "10.255.255.255", "127.0.0.1",
		"169.254.10.10", "172.16.0.1", "172.31.255.255", "192.0.2.55",
		"192.168.1.1", "198.18.3.4", "224.0.0.5", "239.1.2.3",
		"240.0.0.1", "255.255.255.255",
	}
	for _, s := range reserved {
		if !IsReserved(MustParseAddr(s)) {
			t.Errorf("IsReserved(%s) = false, want true", s)
		}
	}
	public := []string{
		"8.8.8.8", "11.0.0.1", "128.2.0.1", "172.15.255.255",
		"172.32.0.0", "192.0.3.0", "192.167.255.255", "198.17.255.255",
		"198.20.0.0", "203.0.113.9", "223.255.255.255",
	}
	for _, s := range public {
		if IsReserved(MustParseAddr(s)) {
			t.Errorf("IsReserved(%s) = true, want false", s)
		}
	}
}

func TestReservedBlocksCopy(t *testing.T) {
	got := ReservedBlocks()
	if len(got) == 0 {
		t.Fatal("ReservedBlocks returned empty table")
	}
	got[0] = MustParseBlock("8.0.0.0/8")
	if IsReserved(MustParseAddr("8.1.2.3")) {
		t.Fatal("mutating ReservedBlocks() result affected the internal table")
	}
}

func TestPopulatedSlash8s(t *testing.T) {
	pop := PopulatedSlash8s()
	if len(pop) == 0 {
		t.Fatal("no populated /8s")
	}
	// Table must be sorted and unique.
	for i := 1; i < len(pop); i++ {
		if pop[i] <= pop[i-1] {
			t.Fatalf("PopulatedSlash8s not strictly ascending at %d: %d <= %d", i, pop[i], pop[i-1])
		}
	}
	// Reserved space must never be listed as populated.
	for _, o := range pop {
		switch o {
		case 0, 10, 127:
			t.Errorf("/8 %d is special but listed populated", o)
		}
		if o >= 224 {
			t.Errorf("/8 %d is multicast/reserved but listed populated", o)
		}
	}
	// Spot checks for 2006-era status.
	if !slices.Contains(pop, 64) {
		t.Error("64/8 (ARIN) should be populated")
	}
	if slices.Contains(pop, 1) {
		t.Error("1/8 was in the IANA free pool in 2006")
	}
	if slices.Contains(pop, 185) {
		t.Error("185/8 was unallocated in 2006")
	}
}

func TestRegistryString(t *testing.T) {
	if ARIN.String() != "ARIN" || RIPE.String() != "RIPE" {
		t.Error("registry names wrong")
	}
	if Registry(200).String() != "UNKNOWN" {
		t.Error("out-of-range registry should stringify as UNKNOWN")
	}
	if RegistryOf(MustParseAddr("41.1.2.3")) != AfriNIC {
		t.Error("41/8 should be AfriNIC")
	}
}
