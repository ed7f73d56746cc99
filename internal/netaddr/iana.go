package netaddr

// IANA /8 allocation status, approximating the IPv4 address space registry
// as of October 2006 (the paper's observation window). The paper's "naive"
// density estimate selects addresses evenly from across all /8s which are
// listed as populated by IANA (§4.2); this table drives that estimate and
// the synthetic address-space model in internal/netmodel.
//
// The table is a faithful-in-shape approximation of the 2006 registry: the
// legacy class-A holders, the RIR blocks allocated by late 2006, and the
// ranges still held in the IANA free pool at that date. Per-/8 attribution
// is simplified to the allocating registry.

// Registry identifies who an IPv4 /8 was allocated to in the 2006 registry.
type Registry uint8

// Registry values. Unallocated marks /8s still in the IANA free pool in
// October 2006; those are the /8s the naive estimate must skip.
const (
	Unallocated Registry = iota
	Legacy               // pre-RIR direct assignments (GE, MIT, DoD, ...)
	ARIN
	RIPE
	APNIC
	LACNIC
	AfriNIC
	Special // loopback, multicast, future use
)

var registryNames = [...]string{
	Unallocated: "UNALLOCATED",
	Legacy:      "LEGACY",
	ARIN:        "ARIN",
	RIPE:        "RIPE",
	APNIC:       "APNIC",
	LACNIC:      "LACNIC",
	AfriNIC:     "AFRINIC",
	Special:     "SPECIAL",
}

// String returns the registry's conventional upper-case name.
func (r Registry) String() string {
	if int(r) < len(registryNames) {
		return registryNames[r]
	}
	return "UNKNOWN"
}

// slash8Registry maps the first octet of an address to its 2006 registry.
var slash8Registry = buildSlash8Table()

func buildSlash8Table() [256]Registry {
	var t [256]Registry // zero value: Unallocated
	set := func(r Registry, octets ...int) {
		for _, o := range octets {
			t[o] = r
		}
	}
	setRange := func(r Registry, lo, hi int) {
		for o := lo; o <= hi; o++ {
			t[o] = r
		}
	}
	set(Special, 0, 127)
	setRange(Special, 224, 255) // multicast + future use
	// Legacy class-A assignments still routed in 2006.
	set(Legacy, 3, 4, 6, 8, 9, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22,
		25, 26, 28, 29, 30, 32, 33, 34, 35, 38, 40, 43, 44, 45, 47, 48,
		51, 52, 53, 54, 55, 56, 57)
	set(ARIN, 7, 24, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76,
		96, 97, 98, 99, 199, 204, 205, 206, 207, 208, 209, 216)
	set(RIPE, 62, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90,
		91, 193, 194, 195, 212, 213, 217)
	set(APNIC, 58, 59, 60, 61, 116, 117, 118, 119, 120, 121, 122, 123, 124,
		125, 126, 202, 203, 210, 211, 218, 219, 220, 221, 222)
	set(LACNIC, 189, 190, 200, 201)
	set(AfriNIC, 41, 196)
	// Multi-registry "various" space from the early classful era.
	setRange(ARIN, 128, 172) // 172 private range handled by IsReserved
	setRange(ARIN, 198, 198)
	set(ARIN, 192)
	set(RIPE, 141, 145, 151, 188) // ERX transfers; keep within 128-191 as ARIN-dominant
	set(APNIC, 150, 163, 171)
	setRange(ARIN, 173, 187) // unallocated in 2006 in reality for some; treated as fringe
	t[173] = Unallocated
	t[174] = Unallocated
	t[175] = Unallocated
	t[176] = Unallocated
	t[177] = Unallocated
	t[178] = Unallocated
	t[179] = Unallocated
	t[180] = Unallocated
	t[181] = Unallocated
	t[182] = Unallocated
	t[183] = Unallocated
	t[184] = Unallocated
	t[185] = Unallocated
	t[186] = Unallocated
	t[187] = Unallocated
	set(Unallocated, 1, 2, 5, 14, 23, 27, 31, 36, 37, 39, 42, 46, 49, 50,
		92, 93, 94, 95, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
		110, 111, 112, 113, 114, 115, 197, 214, 215, 223)
	// 10 is RFC1918, 127 loopback: keep Special so they never count as populated.
	t[10] = Special
	t[127] = Special
	t[0] = Special
	return t
}

// RegistryOf returns the 2006 registry owning the /8 containing a.
func RegistryOf(a Addr) Registry {
	return slash8Registry[a>>24]
}

// PopulatedSlash8s returns the first octets of every /8 listed as populated
// (allocated to a registry or legacy holder) in the 2006 table, in ascending
// order. Reserved and unallocated /8s are excluded.
func PopulatedSlash8s() []byte {
	var out []byte
	for o := 0; o < 256; o++ {
		switch slash8Registry[o] {
		case Unallocated, Special:
		default:
			out = append(out, byte(o))
		}
	}
	return out
}
