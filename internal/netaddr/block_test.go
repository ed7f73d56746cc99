package netaddr

import (
	"testing"
	"testing/quick"
)

func TestBlockPaperExample(t *testing.T) {
	// §3.1: C_16(127.1.135.14) = 127.1.0.0/16.
	b := MustParseAddr("127.1.135.14").Block(16)
	if got := b.String(); got != "127.1.0.0/16" {
		t.Fatalf("C_16(127.1.135.14) = %s, want 127.1.0.0/16", got)
	}
}

func TestParseBlock(t *testing.T) {
	cases := map[string]string{
		"127.1.0.0/16":     "127.1.0.0/16",
		"127.1.135.14/16":  "127.1.0.0/16", // base gets masked
		"10.0.0.0/8":       "10.0.0.0/8",
		"1.2.3.4/32":       "1.2.3.4/32",
		"128.0.0.0/1":      "128.0.0.0/1",
		"255.255.255.0/24": "255.255.255.0/24",
	}
	for in, want := range cases {
		b, err := ParseBlock(in)
		if err != nil {
			t.Errorf("ParseBlock(%q): %v", in, err)
			continue
		}
		if got := b.String(); got != want {
			t.Errorf("ParseBlock(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestParseBlockInvalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "x/24"} {
		if _, err := ParseBlock(s); err == nil {
			t.Errorf("ParseBlock(%q) succeeded, want error", s)
		}
	}
}

func TestBlockSizeLast(t *testing.T) {
	b := MustParseBlock("192.168.4.0/22")
	if b.Size() != 1024 {
		t.Errorf("Size() = %d, want 1024", b.Size())
	}
	if !b.Contains(MustParseAddr("192.168.7.255")) || b.Contains(MustParseAddr("192.168.8.0")) {
		t.Error("192.168.4.0/22 must end at 192.168.7.255")
	}
	all := MustParseBlock("0.0.0.0/0")
	if all.Size() != 1<<32 {
		t.Errorf("/0 Size() = %d, want 2^32", all.Size())
	}
	host := MustParseBlock("1.2.3.4/32")
	if host.Size() != 1 || host.Contains(host.Base()+1) {
		t.Errorf("/32 block size/last wrong: %d", host.Size())
	}
}

func TestBlockContains(t *testing.T) {
	b := MustParseBlock("10.20.0.0/16")
	if !b.Contains(MustParseAddr("10.20.255.255")) {
		t.Error("block should contain 10.20.255.255")
	}
	if b.Contains(MustParseAddr("10.21.0.0")) {
		t.Error("block should not contain 10.21.0.0")
	}
}

func TestBlockContainsBlock(t *testing.T) {
	outer := MustParseBlock("10.0.0.0/8")
	inner := MustParseBlock("10.20.0.0/16")
	if !outer.ContainsBlock(inner) {
		t.Error("outer /8 should contain /16")
	}
	if inner.ContainsBlock(outer) {
		t.Error("/16 must not contain its /8 parent")
	}
	if !outer.ContainsBlock(outer) {
		t.Error("block should contain itself")
	}
}

func TestBlockParent(t *testing.T) {
	b := MustParseBlock("10.20.0.0/16")
	if got := b.Parent().String(); got != "10.20.0.0/15" {
		t.Errorf("Parent() = %s, want 10.20.0.0/15", got)
	}
	odd := MustParseBlock("10.21.0.0/16")
	if got := odd.Parent().String(); got != "10.20.0.0/15" {
		t.Errorf("Parent() = %s, want 10.20.0.0/15", got)
	}
	root := MustParseBlock("0.0.0.0/0")
	if root.Parent() != root {
		t.Error("Parent of /0 should be itself")
	}
}

func TestBlockParentContainsChild(t *testing.T) {
	f := func(u uint32, nRaw uint8) bool {
		n := int(nRaw%32) + 1 // 1..32
		b := Addr(u).Block(n)
		return b.Parent().ContainsBlock(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStringRoundTrip(t *testing.T) {
	f := func(u uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		b := Addr(u).Block(n)
		parsed, err := ParseBlock(b.String())
		return err == nil && parsed == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
