package ipset

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// TestV2RoundTrip proves the v2 image is lossless for every container
// shape, loads into the compressed representation, and encodes
// identically from either input representation.
func TestV2RoundTrip(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(67)
			plain := shape.gen(rng)
			var fromPlain, fromComp bytes.Buffer
			if err := plain.WriteBinaryV2(&fromPlain); err != nil {
				t.Fatal(err)
			}
			if err := plain.Compress().WriteBinaryV2(&fromComp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromPlain.Bytes(), fromComp.Bytes()) {
				t.Fatal("v2 bytes differ between representations")
			}
			back, err := ReadBinary(bytes.NewReader(fromPlain.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Len() > 0 && !back.IsCompressed() {
				t.Fatal("v2 load should yield the compressed representation")
			}
			sameAddrs(t, "v2 roundtrip", back, plain)
		})
	}
}

// TestV2CrossVersion proves both formats decode to identical sets: a
// membership written as v1 and as v2 reads back equal either way.
func TestV2CrossVersion(t *testing.T) {
	rng := stats.NewRNG(71)
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.gen(rng)
			var v1, v2 bytes.Buffer
			if err := s.WriteBinary(&v1); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteBinaryV2(&v2); err != nil {
				t.Fatal(err)
			}
			from1, err := ReadBinary(&v1)
			if err != nil {
				t.Fatal(err)
			}
			from2, err := ReadBinary(&v2)
			if err != nil {
				t.Fatal(err)
			}
			sameAddrs(t, "v1 vs v2", from2, from1)
			// And the v1 re-encoding of a v2-loaded set is byte-identical
			// to the original v1 encoding.
			var re bytes.Buffer
			if err := from2.WriteBinary(&re); err != nil {
				t.Fatal(err)
			}
			var orig bytes.Buffer
			if err := s.WriteBinary(&orig); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), orig.Bytes()) {
				t.Fatal("v1 re-encoding of a v2-loaded set differs")
			}
		})
	}
}

// TestV2Alignment pins the mmap-serving guarantees: page-aligned data
// region and 8-byte-aligned container payloads.
func TestV2Alignment(t *testing.T) {
	rng := stats.NewRNG(73)
	s := clusteredSet(rng, 16, 6000)
	var buf bytes.Buffer
	if err := s.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	count := int(v2LE.Uint32(data[8:]))
	if count == 0 {
		t.Fatal("expected containers")
	}
	for i := 0; i < count; i++ {
		off := v2LE.Uint64(data[v2HeaderSize+i*v2EntrySize+16:])
		if off&7 != 0 {
			t.Fatalf("container %d offset %d not 8-byte aligned", i, off)
		}
		if i == 0 && off%v2PageAlign != 0 {
			t.Fatalf("data region starts at %d, not page aligned", off)
		}
	}
}

func writeV2(t *testing.T, s Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustFailV2(t *testing.T, label string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: parse panicked: %v", label, r)
		}
	}()
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatalf("%s: corrupted image parsed without error", label)
	}
}

// TestV2Corruption feeds truncated and bit-flipped images to the parser
// and demands a clean error — never a panic, never a wrong set.
func TestV2Corruption(t *testing.T) {
	rng := stats.NewRNG(79)
	good := writeV2(t, clusteredSet(rng, 8, 3000).Union(randomSet(rng, 500)))
	if _, err := ReadBinary(bytes.NewReader(good)); err != nil {
		t.Fatalf("control image failed to parse: %v", err)
	}

	t.Run("truncated-header", func(t *testing.T) {
		mustFailV2(t, "truncated header", good[:12])
	})
	t.Run("truncated-directory", func(t *testing.T) {
		mustFailV2(t, "truncated directory", good[:v2HeaderSize+v2EntrySize/2])
	})
	t.Run("truncated-data", func(t *testing.T) {
		mustFailV2(t, "truncated data", good[:len(good)*2/3])
	})
	t.Run("missing-footer", func(t *testing.T) {
		mustFailV2(t, "missing footer", good[:len(good)-v2FooterSize])
	})
	t.Run("bad-crc", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[v2PageAlign+1] ^= 0x40 // flip a container payload bit
		mustFailV2(t, "payload bit flip", bad)
	})
	t.Run("bad-directory", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[v2HeaderSize+4] ^= 0xff // corrupt first container's cardinality
		mustFailV2(t, "directory bit flip", bad)
	})
	t.Run("bad-footer-length", func(t *testing.T) {
		bad := bytes.Clone(good)
		v2LE.PutUint64(bad[len(bad)-v2FooterSize:], uint64(len(bad)))
		mustFailV2(t, "footer length lie", bad)
	})
	t.Run("zero-bytes", func(t *testing.T) {
		mustFailV2(t, "zeros", make([]byte, 8192))
	})
	t.Run("v1-magic-v2-body", func(t *testing.T) {
		bad := bytes.Clone(good)
		copy(bad, codecMagic[:])
		mustFailV2(t, "wrong magic", bad)
	})
}

// TestV2CorruptionStructural hand-crafts directory entries that pass the
// CRC (recomputed) but violate structural invariants, proving the
// validator rejects them rather than building a misbehaving set.
func TestV2CorruptionStructural(t *testing.T) {
	for _, c := range structuralCorruptions() {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(writeV2(t, structuralBase()))
			c.mutate(data)
			mustFailV2(t, c.name, resignV2(data))
		})
	}
}

// resignV2 rewrites an image's footer length and CRC to match its
// payload, so only the structural checks can fail.
func resignV2(data []byte) []byte {
	payload := data[:len(data)-v2FooterSize]
	foot := data[len(data)-v2FooterSize:]
	v2LE.PutUint64(foot[0:], uint64(len(payload)))
	v2LE.PutUint32(foot[8:], crc32.ChecksumIEEE(payload))
	return data
}

// structuralBase is the set TestV2CorruptionStructural corrupts.
func structuralBase() Set { return clusteredSet(stats.NewRNG(83), 4, 100) }

type v2Corruption struct {
	name   string
	mutate func(data []byte)
}

// structuralCorruptions are directory and container edits that leave the
// footer intact once resigned but break a structural invariant.
func structuralCorruptions() []v2Corruption {
	return []v2Corruption{
		{"keys-out-of-order", func(data []byte) {
			v2LE.PutUint16(data[v2HeaderSize+v2EntrySize:], v2LE.Uint16(data[v2HeaderSize:]))
		}},
		{"unknown-kind", func(data []byte) {
			data[v2HeaderSize+2] = 7
		}},
		{"misaligned-offset", func(data []byte) {
			off := v2LE.Uint64(data[v2HeaderSize+16:])
			v2LE.PutUint64(data[v2HeaderSize+16:], off+2)
		}},
		{"offset-out-of-bounds", func(data []byte) {
			v2LE.PutUint64(data[v2HeaderSize+16:], uint64(len(data)))
		}},
		{"offset-wraps", func(data []byte) {
			// An aligned offset whose end wraps past 2^64 to inside
			// the payload.
			v2LE.PutUint64(data[v2HeaderSize+16:], ^uint64(7))
		}},
		{"array-unsorted", func(data []byte) {
			off := v2LE.Uint64(data[v2HeaderSize+16:])
			v2LE.PutUint16(data[off:], 0xffff)
		}},
		{"total-mismatch", func(data []byte) {
			v2LE.PutUint64(data[16:], 1)
		}},
	}
}

// TestOpenMapped exercises the full WriteFileV2 → OpenMapped path: the
// mapped set must answer every query identically to the in-heap one.
func TestOpenMapped(t *testing.T) {
	rng := stats.NewRNG(89)
	s := clusteredSet(rng, 32, 5000).Union(randomSet(rng, 2000))
	path := filepath.Join(t.TempDir(), "set.v2")
	if err := s.WriteFileV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sameAddrs(t, "mapped", m.Set, s)
	if !m.Set.IsCompressed() {
		t.Fatal("mapped set should be compressed")
	}
	for n := 0; n <= 32; n += 4 {
		if got, want := m.Set.BlockCount(n), s.BlockCount(n); got != want {
			t.Fatalf("mapped BlockCount(%d): got %d, want %d", n, got, want)
		}
	}
	seed := rng.Uint64()
	sameAddrs(t, "mapped sample",
		m.Set.Sample(1000, stats.NewRNG(seed)), s.Sample(1000, stats.NewRNG(seed)))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Close() != nil { // double close is a no-op
		t.Fatal("second Close errored")
	}
}

// TestOpenMappedRejectsCorrupt writes a valid file, damages it on disk,
// and checks OpenMapped fails cleanly without leaking the mapping.
func TestOpenMappedRejectsCorrupt(t *testing.T) {
	rng := stats.NewRNG(97)
	s := clusteredSet(rng, 4, 1000)
	path := filepath.Join(t.TempDir(), "set.v2")
	if err := s.WriteFileV2(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[v2PageAlign] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("corrupt file mapped without error")
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("truncated file mapped without error")
	}
}

// alignedCopy returns a copy of data whose first byte is 8-byte
// aligned, as a mapping is, so parseV2 takes its aliasing path.
func alignedCopy(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	words := make([]uint64, (len(data)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
	copy(out, data)
	return out
}

// FuzzParseV2 holds the v2 image parser to its contract on arbitrary
// bytes: it returns an error or a set, never panics, and the aliasing
// and copying paths agree. The harness rewrites each input's footer
// length and CRC, so mutations reach the directory and container
// checks. When the parse succeeds, the two sets agree on Len, on
// Contains at every member and its neighbours, and on BlockCount for
// every prefix length from 8 to 32; their v2 encodings are the same
// bytes, and those bytes parse back to an equal set. The seed corpus in
// testdata holds an empty image, array-, bitmap- and run-container
// images, and TestV2CorruptionStructural's cases.
func FuzzParseV2(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= v2FooterSize {
			data = resignV2(bytes.Clone(data))
		}
		copied, errCopied := parseV2(bytes.Clone(data), false)
		aliased, errAliased := parseV2(alignedCopy(data), true)
		if (errCopied == nil) != (errAliased == nil) {
			t.Fatalf("copying parse error %v, aliasing parse error %v", errCopied, errAliased)
		}
		if errCopied != nil {
			return
		}
		if copied.Len() != aliased.Len() {
			t.Fatalf("Len %d copied, %d aliased", copied.Len(), aliased.Len())
		}
		n := 0
		copied.Each(func(a netaddr.Addr) bool {
			n++
			for _, p := range []netaddr.Addr{a - 1, a, a + 1} {
				if c, al := copied.Contains(p), aliased.Contains(p); c != al || (p == a && !c) {
					t.Fatalf("Contains(%v) = %v copied, %v aliased", p, c, al)
				}
			}
			return true
		})
		if n != copied.Len() {
			t.Fatalf("Each visited %d members of %d", n, copied.Len())
		}
		for bits := 8; bits <= 32; bits++ {
			if c, a := copied.BlockCount(bits), aliased.BlockCount(bits); c != a {
				t.Fatalf("BlockCount(%d) = %d copied, %d aliased", bits, c, a)
			}
		}
		var fromCopied, fromAliased bytes.Buffer
		if err := copied.WriteBinaryV2(&fromCopied); err != nil {
			t.Fatal(err)
		}
		if err := aliased.WriteBinaryV2(&fromAliased); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromCopied.Bytes(), fromAliased.Bytes()) {
			t.Fatal("the two sets encode to different bytes")
		}
		back, err := parseV2(fromCopied.Bytes(), false)
		if err != nil {
			t.Fatalf("re-encoded image does not parse: %v", err)
		}
		if !back.Equal(copied) {
			t.Fatal("re-encoded image parses to a different set")
		}
	})
}
