package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Block is an IPv4 CIDR block: a base address plus a prefix length. The base
// address is always stored masked, so blocks are directly comparable with ==
// and usable as map keys.
type Block struct {
	base Addr
	bits uint8
}

// ParseBlock parses CIDR notation such as "127.1.0.0/16". The base address
// need not be pre-masked; "127.1.135.14/16" parses to 127.1.0.0/16.
func ParseBlock(s string) (Block, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Block{}, fmt.Errorf("netaddr: missing '/' in CIDR %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Block{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Block{}, fmt.Errorf("netaddr: invalid prefix length in CIDR %q", s)
	}
	return addr.Block(bits), nil
}

// MustParseBlock is ParseBlock that panics on error.
func MustParseBlock(s string) Block {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Base returns the first address in the block.
func (b Block) Base() Addr { return b.base }

// Bits returns the prefix length.
func (b Block) Bits() int { return int(b.bits) }

// Size returns the number of addresses the block spans (2^(32-bits)).
func (b Block) Size() uint64 { return 1 << (32 - uint(b.bits)) }

// Contains reports whether addr lies inside the block.
func (b Block) Contains(addr Addr) bool { return addr.Mask(int(b.bits)) == b.base }

// ContainsBlock reports whether other is fully contained in b (equal or
// longer prefix sharing b's leading bits).
func (b Block) ContainsBlock(other Block) bool {
	return other.bits >= b.bits && b.Contains(other.base)
}

// Parent returns the block one bit shorter that contains b. Parent of a /0
// is itself.
func (b Block) Parent() Block {
	if b.bits == 0 {
		return b
	}
	return b.base.Block(int(b.bits) - 1)
}

// String renders the block in CIDR notation.
func (b Block) String() string {
	return b.base.String() + "/" + strconv.Itoa(int(b.bits))
}

// MarshalText implements encoding.TextMarshaler (CIDR notation).
func (b Block) MarshalText() ([]byte, error) {
	return []byte(b.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (b *Block) UnmarshalText(text []byte) error {
	parsed, err := ParseBlock(string(text))
	if err != nil {
		return err
	}
	*b = parsed
	return nil
}
