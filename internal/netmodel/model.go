// Package netmodel builds the synthetic IPv4 Internet that stands in for
// the paper's proprietary vantage (DESIGN.md §2). The model reproduces the
// two structural facts the analyses depend on:
//
//  1. Active addresses are not uniform over IPv4 space (Kohler et al.):
//     they cluster hierarchically — a minority of /16s inside the
//     IANA-populated /8s hold most active /24s, and /24 populations are
//     heavy-tailed. This is why the paper's empirical control estimate
//     differs from the naive one (Figure 2).
//
//  2. Networks have persistent, heterogeneous defensive posture. Every
//     active /24 carries two uncleanliness coordinates: Unclean (host
//     compromise propensity — the bot/scan/spam dimension) and
//     PhishUnclean (web-hosting compromise propensity — the phishing
//     dimension). They are sampled from beta distributions and correlated
//     within the parent /16, which is what makes compromised hosts cluster
//     spatially. Drawing the two dimensions independently is what
//     reproduces the paper's negative result: bot history does not
//     predict phishing sites (§5.2).
package netmodel

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// Profile categorizes an active /24 by who operates it. Profiles drive
// traffic roles: phishing sites live almost exclusively in datacenter
// space, bot epidemics burn hottest in residential space.
type Profile uint8

// Network profiles.
const (
	Residential Profile = iota
	Business
	University
	Datacenter
)

var profileNames = [...]string{
	Residential: "residential",
	Business:    "business",
	University:  "university",
	Datacenter:  "datacenter",
}

// String returns the lower-case profile name.
func (p Profile) String() string {
	if int(p) < len(profileNames) {
		return profileNames[p]
	}
	return "unknown"
}

// Network is one active /24 in the modeled Internet.
type Network struct {
	// Base is the /24 base address (low octet zero).
	Base netaddr.Addr
	// Hosts is the number of active hosts, in [1, 254].
	Hosts int
	// start is the first active host's low octet.
	start uint8
	// Profile is the operator category.
	Profile Profile
	// Unclean is the host-compromise propensity in [0, 1]; the
	// bot/scan/spam dimension of uncleanliness.
	Unclean float64
	// PhishUnclean is the web-hosting compromise propensity in [0, 1];
	// relevant only where web servers exist (datacenters, some business).
	PhishUnclean float64
	// weight is the relative activity mass used for sampling.
	weight float64
}

// Block returns the /24 CIDR block.
func (n *Network) Block() netaddr.Block { return n.Base.Block(24) }

// Host returns the address of host i (0 <= i < Hosts).
func (n *Network) Host(i int) netaddr.Addr {
	if i < 0 || i >= n.Hosts {
		panic(fmt.Sprintf("netmodel: host index %d out of range [0,%d)", i, n.Hosts))
	}
	return n.Base + netaddr.Addr(uint32(n.start)+uint32(i))
}

// Contains reports whether a is one of the network's active hosts.
func (n *Network) Contains(a netaddr.Addr) bool {
	if a.Mask(24) != n.Base {
		return false
	}
	off := int(uint32(a) & 0xff)
	return off >= int(n.start) && off < int(n.start)+n.Hosts
}

// Config parameterizes the model. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	// TargetNetworks is the approximate number of active /24s to create.
	TargetNetworks int
	// Slash16PerSlash8 is the mean number of active /16s per populated /8.
	Slash16PerSlash8 float64
	// Slash24PerSlash16 is the mean number of active /24s per active /16.
	Slash24PerSlash16 float64
	// UncleanAlpha, UncleanBeta shape the beta distribution of the /16
	// level bot-uncleanliness. Alpha << Beta concentrates mass near zero:
	// most networks are clean, a small tail is very unclean.
	UncleanAlpha, UncleanBeta float64
	// PhishAlpha, PhishBeta shape the independent phishing dimension.
	PhishAlpha, PhishBeta float64
	// DatacenterFrac, UniversityFrac, BusinessFrac partition profiles;
	// the remainder is residential.
	DatacenterFrac, UniversityFrac, BusinessFrac float64
	// Observed lists the CIDR blocks of the observed network; no modeled
	// external network falls inside them (reports are filtered to
	// addresses outside the observed network, §3.2).
	Observed []netaddr.Block
}

// DefaultConfig returns the configuration used by the experiment harness
// at scale 1.0 (about 40k active /24s; the harness scales this down).
func DefaultConfig() Config {
	return Config{
		TargetNetworks:    40000,
		Slash16PerSlash8:  24,
		Slash24PerSlash16: 0, // derived from TargetNetworks when zero
		UncleanAlpha:      0.6,
		UncleanBeta:       4.5,
		PhishAlpha:        0.8,
		PhishBeta:         6.0,
		DatacenterFrac:    0.06,
		UniversityFrac:    0.05,
		BusinessFrac:      0.24,
		Observed:          DefaultObserved(),
	}
}

// DefaultObserved returns the observed network used throughout the
// reproduction: a legacy /8 plus a /9, about 25M addresses — matching the
// paper's "over 20 million distinct IPv4 addresses" edge network.
func DefaultObserved() []netaddr.Block {
	return []netaddr.Block{
		netaddr.MustParseBlock("30.0.0.0/8"),
		netaddr.MustParseBlock("57.0.0.0/9"),
	}
}

// Model is the generated Internet: an ordered list of active /24 networks
// with sampling structures.
type Model struct {
	nets      []Network
	cum       []float64 // cumulative sampling weights
	totalMass float64
	observed  []netaddr.Block
}

// New generates a model from cfg using rng. Generation is deterministic
// for a given (cfg, rng state).
func New(cfg Config, rng *stats.RNG) (*Model, error) {
	if cfg.TargetNetworks <= 0 {
		return nil, fmt.Errorf("netmodel: TargetNetworks must be positive")
	}
	if cfg.UncleanAlpha <= 0 || cfg.UncleanBeta <= 0 || cfg.PhishAlpha <= 0 || cfg.PhishBeta <= 0 {
		return nil, fmt.Errorf("netmodel: beta parameters must be positive")
	}
	if cfg.Slash16PerSlash8 <= 0 {
		return nil, fmt.Errorf("netmodel: Slash16PerSlash8 must be positive")
	}
	slash8s := netaddr.PopulatedSlash8s()
	expected16 := cfg.Slash16PerSlash8 * float64(len(slash8s))
	per16 := cfg.Slash24PerSlash16
	if per16 <= 0 {
		per16 = float64(cfg.TargetNetworks) / expected16
		if per16 < 1 {
			per16 = 1
		}
	}

	// The /8s come in ascending order, so emitting each /8's networks in
	// address order as it completes leaves m.nets sorted by Base. A /8 is
	// generated into buf, each /16's networks contiguous at
	// buf[span16[o][0]:span16[o][1]] for its octet o, then emitted /16 by
	// /16 through at24, which maps a /24 octet to 1 + its network's index
	// in buf. Octets are unique within their parent, so the order is
	// exactly the one a sort by Base gives.
	m := &Model{observed: cfg.Observed, nets: make([]Network, 0, cfg.TargetNetworks)}
	var buf []Network
	var at24 [256]int32
	excluded := append(netaddr.ReservedBlocks(), cfg.Observed...)
	for _, o8 := range slash8s {
		// Only the excluded blocks that overlap this /8 can hold its
		// /24s, and most /8s have none.
		slash8 := netaddr.MakeAddr(o8, 0, 0, 0).Block(8)
		var excluded8 []netaddr.Block
		for _, b := range excluded {
			if b.ContainsBlock(slash8) || slash8.ContainsBlock(b) {
				excluded8 = append(excluded8, b)
			}
		}
		// Number of active /16s in this /8 (at least 1).
		n16 := rng.Poisson(cfg.Slash16PerSlash8)
		if n16 < 1 {
			n16 = 1
		}
		if n16 > 256 {
			n16 = 256
		}
		buf = buf[:0]
		var span16 [256][2]int32
		// Choose which /16s are active.
		for _, idx16 := range rng.Perm(256)[:n16] {
			base16 := netaddr.MakeAddr(o8, byte(idx16), 0, 0)
			// /16-level latent uncleanliness; /24s inherit it noisily, so
			// unclean /24s cluster inside unclean /16s.
			u16 := rng.Beta(cfg.UncleanAlpha, cfg.UncleanBeta)
			p16 := rng.Beta(cfg.PhishAlpha, cfg.PhishBeta)
			// Heavy-tailed count of active /24s in this /16.
			n24 := 1 + int(rng.LogNormal(logOf(per16), 0.9))
			if n24 > 256 {
				n24 = 256
			}
			first := int32(len(buf))
			for _, idx24 := range rng.Perm(256)[:n24] {
				base24 := base16 + netaddr.Addr(uint32(idx24)<<8)
				if insideAny(base24, excluded8) {
					continue
				}
				buf = append(buf, makeNetwork(cfg, rng, base24, u16, p16))
			}
			span16[idx16] = [2]int32{first, int32(len(buf))}
		}
		for _, span := range span16 {
			if span[0] == span[1] {
				continue
			}
			for i := span[0]; i < span[1]; i++ {
				at24[byte(buf[i].Base>>8)] = i + 1
			}
			for o, i := range at24 {
				if i != 0 {
					m.nets = append(m.nets, buf[i-1])
					at24[o] = 0
				}
			}
		}
	}
	if len(m.nets) == 0 {
		return nil, fmt.Errorf("netmodel: generation produced no networks")
	}
	m.cum = make([]float64, len(m.nets))
	total := 0.0
	for i := range m.nets {
		total += m.nets[i].weight
		m.cum[i] = total
	}
	m.totalMass = total
	return m, nil
}

func makeNetwork(cfg Config, rng *stats.RNG, base netaddr.Addr, u16, p16 float64) Network {
	// Host count: heavy-tailed in [1, 254].
	hosts := 1 + int(rng.LogNormal(2.6, 1.0))
	if hosts > 254 {
		hosts = 254
	}
	start := 1
	if hosts < 254 {
		start = 1 + rng.Intn(254-hosts+1)
	}
	// Blend the /16 latent value with local noise: child = clamp to [0,1]
	// of 0.7*parent + 0.3*fresh-draw.
	u := clamp01(0.7*u16 + 0.3*rng.Beta(cfg.UncleanAlpha, cfg.UncleanBeta))
	p := clamp01(0.7*p16 + 0.3*rng.Beta(cfg.PhishAlpha, cfg.PhishBeta))
	prof := Residential
	switch roll := rng.Float64(); {
	case roll < cfg.DatacenterFrac:
		prof = Datacenter
	case roll < cfg.DatacenterFrac+cfg.UniversityFrac:
		prof = University
	case roll < cfg.DatacenterFrac+cfg.UniversityFrac+cfg.BusinessFrac:
		prof = Business
	}
	if prof == Datacenter {
		// Datacenters host the web servers phishers occupy; boost the
		// phishing dimension and de-emphasize the bot dimension slightly.
		p = clamp01(p*1.5 + 0.05)
	}
	// Activity mass: proportional to host count, boosted for server space
	// whose audience spans the Internet (Krishnamurthy-style audiences).
	w := float64(hosts)
	if prof == Datacenter || prof == University {
		w *= 3
	}
	return Network{
		Base:         base,
		Hosts:        hosts,
		start:        uint8(start),
		Profile:      prof,
		Unclean:      u,
		PhishUnclean: p,
		weight:       w,
	}
}

// logOf is math.Log floored at 1 so LogNormal's mu stays non-negative for
// small means.
func logOf(x float64) float64 {
	if x < 1 {
		x = 1
	}
	return math.Log(x)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func insideAny(a netaddr.Addr, blocks []netaddr.Block) bool {
	for _, b := range blocks {
		if b.Contains(a) {
			return true
		}
	}
	return false
}

// NetworkCount returns the number of active /24s.
func (m *Model) NetworkCount() int { return len(m.nets) }

// NetworkAt returns the i-th network in ascending base-address order. The
// returned pointer aliases model storage; callers must not mutate it.
func (m *Model) NetworkAt(i int) *Network { return &m.nets[i] }

// FindNetwork locates the active /24 containing a, if any.
func (m *Model) FindNetwork(a netaddr.Addr) (*Network, bool) {
	base := a.Mask(24)
	i := sort.Search(len(m.nets), func(i int) bool { return m.nets[i].Base >= base })
	if i < len(m.nets) && m.nets[i].Base == base {
		return &m.nets[i], true
	}
	return nil, false
}

// Observed returns the observed network's blocks.
func (m *Model) Observed() []netaddr.Block { return m.observed }

// InObserved reports whether a falls inside the observed network.
func (m *Model) InObserved(a netaddr.Addr) bool { return insideAny(a, m.observed) }

// SampleNetwork draws a network index weighted by activity mass.
func (m *Model) SampleNetwork(rng *stats.RNG) int {
	u := rng.Float64() * m.totalMass
	return sort.SearchFloat64s(m.cum, u)
}

// SampleAddr draws one active address: an activity-weighted network, then
// a uniform host within it.
func (m *Model) SampleAddr(rng *stats.RNG) netaddr.Addr {
	n := &m.nets[m.SampleNetwork(rng)]
	return n.Host(rng.Intn(n.Hosts))
}

// The control draw generates candidates in rounds of at most
// drawRoundChunks chunks of drawChunk draws, the chunks in parallel.
const (
	drawChunk       = 1 << 12
	drawRoundChunks = 64
)

// SampleAddrSet draws size distinct active addresses: SampleAddr draws,
// in order, with repeats rejected. It panics if size exceeds the total
// active host population. The set and the state rng is left in are
// exactly those of repeated SampleAddr calls.
//
// A host is numbered by its network's offset in a dense numbering of all
// active hosts plus its host index; networks are in address order, so
// host numbers are too. A draw takes two RNG outputs, a Float64 for the
// network and an Intn for the host, unless the Intn rejects its output
// and draws again, which happens with probability below 254/2^64. So the
// draws of a round are known in advance: each chunk jumps its own copy
// of rng to its first draw and turns draws into host numbers, a guide
// table narrowing each cumulative-weight search. A chunk stops at a draw
// whose Intn rejects; the round is cut there, and that draw runs on rng
// itself. One pass then marks the round's host numbers in a bitset, in
// draw order, until size distinct hosts are marked. Walking the bitset
// yields the set in address order.
func (m *Model) SampleAddrSet(size int, rng *stats.RNG) ipset.Set {
	// offsets[i] is network i's first host number and
	// offsets[i+1]-offsets[i] its host count. Networks are distinct /24s
	// of at most 254 hosts, so every host number fits in a uint32.
	offsets := make([]uint32, len(m.nets)+1)
	for i := range m.nets {
		offsets[i+1] = offsets[i] + uint32(m.nets[i].Hosts)
	}
	total := int(offsets[len(m.nets)])
	if size > total {
		panic(fmt.Sprintf("netmodel: sample %d exceeds population %d", size, total))
	}
	g := newGuide(m.cum, m.totalMass)
	seen := make([]uint64, (total+63)/64)
	mark := func(host uint32) bool {
		word, mask := host/64, uint64(1)<<(host%64)
		if seen[word]&mask != 0 {
			return false
		}
		seen[word] |= mask
		return true
	}
	cand := make([]uint32, drawRoundChunks*drawChunk)
	var filled [drawRoundChunks]int
	for drawn := 0; drawn < size; {
		// Each draw adds at most one host, so a round never needs more
		// draws than there are hosts still missing.
		chunks := min(drawRoundChunks, (size-drawn+drawChunk-1)/drawChunk)
		stats.Parallel(chunks, func(_, c int) {
			r := *rng
			r.Advance(uint64(2 * c * drawChunk))
			filled[c] = m.drawHosts(cand[c*drawChunk:(c+1)*drawChunk], &r, g, offsets)
		})
		// Chunks past a rejection started from the wrong state.
		round := chunks * drawChunk
		for c, n := range filled[:chunks] {
			if n < drawChunk {
				round = c*drawChunk + n
				break
			}
		}
		k := 0
		for ; k < round && drawn < size; k++ {
			if mark(cand[k]) {
				drawn++
			}
		}
		rng.Advance(uint64(2 * k))
		if k == round && round < chunks*drawChunk && drawn < size {
			i := g.search(rng.Float64() * m.totalMass)
			if mark(offsets[i] + uint32(rng.Intn(int(offsets[i+1]-offsets[i])))) {
				drawn++
			}
		}
	}
	b := ipset.NewBuilder(size)
	i := 0
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			host := uint32(w*64 + bits.TrailingZeros64(word))
			for offsets[i+1] <= host {
				i++
			}
			n := &m.nets[i]
			b.Add(n.Base + netaddr.Addr(uint32(n.start)+host-offsets[i]))
		}
	}
	return b.Build()
}

// drawBlock is how many draws drawHosts looks up before it resolves
// any of them.
const drawBlock = 512

// drawHosts fills dst with the host numbers of consecutive draws from r.
// It returns len(dst), or the index of the first draw whose Intn rejects
// its one output.
//
// It works through dst a block of draws at a time, in two passes. The
// lookup pass computes each draw's weight from its Float64 and its
// guided candidate, then loads each candidate's cumulative weights and
// host numbers. It never branches on what it loads, so the block's
// loads, mostly cache misses, overlap. The resolve pass finds each
// draw's network from what the lookups loaded, reading the tables again
// only when the answer is past the candidate, and applies IntnOnce to
// the draw's second output.
func (m *Model) drawHosts(dst []uint32, r *stats.RNG, g guide, offsets []uint32) int {
	var (
		u, below, at      [drawBlock]float64
		cand, first, next [drawBlock]uint32
	)
	for lo := 0; lo < len(dst); lo += drawBlock {
		blk := dst[lo:min(lo+drawBlock, len(dst))]
		look := *r
		for k := range blk {
			u[k] = look.Float64() * m.totalMass
			look.Advance(1)
			cand[k] = g.candidate(u[k])
		}
		for k, i := range cand[:len(blk)] {
			below[k], at[k] = g.weights(i)
			first[k], next[k] = offsets[i], offsets[i+1]
		}
		for k := range blk {
			i := g.resolve(u[k], cand[k], below[k], at[k])
			if i != int(cand[k]) {
				first[k], next[k] = offsets[i], offsets[i+1]
			}
			r.Advance(1)
			h, ok := r.IntnOnce(int(next[k] - first[k]))
			if !ok {
				return lo + k
			}
			blk[k] = first[k] + uint32(h)
		}
	}
	return len(dst)
}

// guide answers sort.SearchFloat64s(cum, u) for a strictly increasing cum
// and u in [0, cum[len(cum)-1]] in a few steps instead of a full binary
// search. The weight range is cut into one equal bucket per guideSpan
// weights; start[j] is the first index whose cumulative weight reaches
// bucket j's lower edge, so the answer for a u in bucket j lies at or a
// few steps after start[j].
type guide struct {
	cum   []float64
	start []uint32
	scale float64 // buckets per unit of weight
}

// guideSpan is how many weights a guide bucket spans on average. Two
// halve the table, so fewer of a draw's lookups into it miss cache and
// TLB, and the walk from a candidate, a step longer on average, mostly
// stays on the cache line the lookup pass loaded.
const guideSpan = 2

func newGuide(cum []float64, total float64) guide {
	buckets := (len(cum) + guideSpan - 1) / guideSpan
	g := guide{cum: cum, start: make([]uint32, buckets), scale: float64(buckets) / total}
	i := 0
	for j := range g.start {
		edge := float64(j) / g.scale
		for i < len(cum)-1 && cum[i] < edge {
			i++
		}
		g.start[j] = uint32(i)
	}
	return g
}

// search returns sort.SearchFloat64s(g.cum, u).
func (g guide) search(u float64) int {
	i := g.candidate(u)
	below, at := g.weights(i)
	return g.resolve(u, i, below, at)
}

// candidate returns the start of u's bucket: the first index whose
// cumulative weight reaches the bucket's lower edge.
func (g guide) candidate(u float64) uint32 {
	return g.start[min(int(u*g.scale), len(g.start)-1)]
}

// weights returns cum[i-1] and cum[i]. For i = 0 it returns cum[0] as
// cum[i-1], which resolve does not read.
func (g guide) weights(i uint32) (below, at float64) {
	return g.cum[max(i, 1)-1], g.cum[i]
}

// resolve returns sort.SearchFloat64s(g.cum, u) from u's candidate: it
// walks from the candidate while the weight at it is below u, then
// returns where it stopped only when cum[i-1] < u <= cum[i], which makes
// it that answer. When rounding in the bucket arithmetic puts the
// candidate past the answer, the full search runs instead.
func (g guide) resolve(u float64, i uint32, below, at float64) int {
	for last := uint32(len(g.cum) - 1); at < u && i < last; {
		i++
		below, at = at, g.cum[i]
	}
	if u <= at && (i == 0 || below < u) {
		return int(i)
	}
	return sort.SearchFloat64s(g.cum, u)
}

// TotalHosts returns the total active host population.
func (m *Model) TotalHosts() int {
	total := 0
	for i := range m.nets {
		total += m.nets[i].Hosts
	}
	return total
}

// NaiveSample draws size addresses uniformly from across all /8s listed
// as populated by IANA — the paper's naive density estimate (§4.2). The
// draw ignores the model's structure entirely, which is the point.
func NaiveSample(size int, rng *stats.RNG) ipset.Set {
	slash8s := netaddr.PopulatedSlash8s()
	b := ipset.NewBuilder(size)
	seen := make(map[netaddr.Addr]struct{}, size)
	for len(seen) < size {
		o8 := slash8s[rng.Intn(len(slash8s))]
		a := netaddr.Addr(uint32(o8)<<24 | uint32(rng.Uint32()&0x00ffffff))
		if netaddr.IsReserved(a) {
			continue
		}
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	return b.Build()
}
