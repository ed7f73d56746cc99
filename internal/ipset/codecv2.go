package ipset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"unsafe"

	"unclean/internal/atomicfile"
)

// Binary set format v2: an mmap-friendly container image. Where v1
// delta-varint-encodes the membership (smallest on disk, but decoding
// materializes every address), v2 serializes the compressed containers
// directly, so a mapped file can serve lookups without parsing:
//
//	header     8B magic "unclips2", u32 container count, u32 pad,
//	           u64 total cardinality
//	directory  24B per container: u16 key, u8 kind, u8 pad, u32 card,
//	           u32 elems, u32 pad, u64 offset — everything a query
//	           planner needs without touching container data
//	           (padding to the next 4096 boundary)
//	data       per-container payloads at their directory offsets, each
//	           8-byte aligned: u16 values (array), u16 start/last pairs
//	           (run), or 1024 u64 words (bitmap), little-endian
//	footer     24B: u64 payload length, u32 IEEE CRC32 of the payload,
//	           u32 pad, 8B magic again
//
// The directory lives in the first page(s) and container data starts
// page-aligned, so OpenMapped can alias []uint16/[]uint64 container
// slices straight into the mapping — the OS pages in only the /16s a
// workload touches. ReadBinary dispatches on the magic, so v1 files
// still load.

var codecMagicV2 = [8]byte{'u', 'n', 'c', 'l', 'i', 'p', 's', '2'}

const (
	v2HeaderSize = 24
	v2EntrySize  = 24
	v2FooterSize = 24
	v2PageAlign  = 4096
)

var v2LE = binary.LittleEndian

// hostLittleEndian gates the zero-copy alias paths: on a big-endian
// host the on-disk little-endian payloads are decoded by copy instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v2Layout computes the container payload offsets and the total payload
// length for a container list.
func v2Layout(list []ctr) (offsets []uint64, elems []uint32, payloadLen uint64) {
	dirEnd := v2HeaderSize + len(list)*v2EntrySize
	off := (dirEnd + v2PageAlign - 1) / v2PageAlign * v2PageAlign
	offsets = make([]uint64, len(list))
	elems = make([]uint32, len(list))
	for i := range list {
		c := &list[i]
		var sz int
		switch c.kind {
		case arrKind, runKind:
			elems[i] = uint32(len(c.arr))
			sz = 2 * len(c.arr)
		case bmpKind:
			elems[i] = bmpWords
			sz = 8 * bmpWords
		}
		offsets[i] = uint64(off)
		off += (sz + 7) &^ 7
	}
	return offsets, elems, uint64(off)
}

// WriteBinaryV2 serializes the set in the v2 container image format.
// A plain set is compressed on the fly; its membership is unchanged.
func (s Set) WriteBinaryV2(w io.Writer) error {
	comp := s.Compress().comp
	var list []ctr
	if comp != nil {
		list = comp.cs
	}
	offsets, elems, payloadLen := v2Layout(list)

	h := crc32.NewIEEE()
	mw := io.MultiWriter(w, h)

	// Header + directory + page padding, in one buffer.
	dataStart := (v2HeaderSize + len(list)*v2EntrySize + v2PageAlign - 1) / v2PageAlign * v2PageAlign
	head := make([]byte, dataStart)
	copy(head, codecMagicV2[:])
	v2LE.PutUint32(head[8:], uint32(len(list)))
	v2LE.PutUint64(head[16:], uint64(s.Len()))
	for i := range list {
		e := head[v2HeaderSize+i*v2EntrySize:]
		v2LE.PutUint16(e[0:], list[i].key)
		e[2] = list[i].kind
		v2LE.PutUint32(e[4:], list[i].card)
		v2LE.PutUint32(e[8:], elems[i])
		v2LE.PutUint64(e[16:], offsets[i])
	}
	if _, err := mw.Write(head); err != nil {
		return err
	}

	// Container payloads, each padded to 8 bytes.
	var pad [8]byte
	scratch := make([]byte, 8*bmpWords)
	for i := range list {
		c := &list[i]
		var n int
		switch c.kind {
		case arrKind, runKind:
			for j, v := range c.arr {
				v2LE.PutUint16(scratch[2*j:], v)
			}
			n = 2 * len(c.arr)
		case bmpKind:
			for j, word := range c.bits {
				v2LE.PutUint64(scratch[8*j:], word)
			}
			n = 8 * bmpWords
		}
		if _, err := mw.Write(scratch[:n]); err != nil {
			return err
		}
		if p := (-n) & 7; p > 0 {
			if _, err := mw.Write(pad[:p]); err != nil {
				return err
			}
		}
	}

	// Footer — not covered by the CRC it carries.
	var foot [v2FooterSize]byte
	v2LE.PutUint64(foot[0:], payloadLen)
	v2LE.PutUint32(foot[8:], h.Sum32())
	copy(foot[16:], codecMagicV2[:])
	_, err := w.Write(foot[:])
	return err
}

// WriteFileV2 atomically writes the set to path in the v2 format via
// the crash-safe temp → fsync → rename sequence.
func (s Set) WriteFileV2(path string) error {
	return atomicfile.WriteStream(path, s.WriteBinaryV2)
}

// parseV2 validates a complete v2 image and builds the compressed set.
// When alias is true (and the host is little-endian, and data is
// 8-byte aligned) container slices reference data directly — the mmap
// fast path; otherwise payloads are copied out.
func parseV2(data []byte, alias bool) (Set, error) {
	if len(data) < v2HeaderSize+v2FooterSize {
		return Set{}, fmt.Errorf("ipset: v2 image truncated: %d bytes", len(data))
	}
	foot := data[len(data)-v2FooterSize:]
	if [8]byte(foot[16:24]) != codecMagicV2 {
		return Set{}, fmt.Errorf("ipset: v2 footer magic missing (truncated file?)")
	}
	payloadLen := v2LE.Uint64(foot[0:])
	if payloadLen != uint64(len(data)-v2FooterSize) {
		return Set{}, fmt.Errorf("ipset: v2 footer claims %d payload bytes, file has %d",
			payloadLen, len(data)-v2FooterSize)
	}
	payload := data[:payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), v2LE.Uint32(foot[8:]); got != want {
		return Set{}, fmt.Errorf("ipset: v2 crc %08x, footer says %08x", got, want)
	}
	if [8]byte(payload[0:8]) != codecMagicV2 {
		return Set{}, fmt.Errorf("ipset: v2 header magic corrupt")
	}
	count := int(v2LE.Uint32(payload[8:]))
	total := v2LE.Uint64(payload[16:])
	dirEnd := v2HeaderSize + count*v2EntrySize
	if count < 0 || dirEnd > len(payload) {
		return Set{}, fmt.Errorf("ipset: v2 directory (%d containers) exceeds payload", count)
	}
	if count == 0 {
		if total != 0 {
			return Set{}, fmt.Errorf("ipset: v2 empty directory but cardinality %d", total)
		}
		return Set{}, nil
	}

	alias = alias && hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))&7 == 0
	cs := &containers{cs: make([]ctr, count)}
	prevKey := -1
	for i := 0; i < count; i++ {
		e := payload[v2HeaderSize+i*v2EntrySize:]
		c := &cs.cs[i]
		c.key = v2LE.Uint16(e[0:])
		c.kind = e[2]
		c.card = v2LE.Uint32(e[4:])
		elems := v2LE.Uint32(e[8:])
		off := v2LE.Uint64(e[16:])
		if int(c.key) <= prevKey {
			return Set{}, fmt.Errorf("ipset: v2 container %d: key %#04x out of order", i, c.key)
		}
		prevKey = int(c.key)
		if c.card == 0 || c.card > 1<<16 {
			return Set{}, fmt.Errorf("ipset: v2 container %d: cardinality %d", i, c.card)
		}
		var size uint64
		switch c.kind {
		case arrKind, runKind:
			size = 2 * uint64(elems)
		case bmpKind:
			if elems != bmpWords {
				return Set{}, fmt.Errorf("ipset: v2 container %d: bitmap with %d words", i, elems)
			}
			size = 8 * bmpWords
		default:
			return Set{}, fmt.Errorf("ipset: v2 container %d: unknown kind %d", i, c.kind)
		}
		// Compared as a remainder, so an offset near 2^64 cannot wrap
		// off+size back inside the payload.
		if off&7 != 0 || off < uint64(dirEnd) || off > payloadLen || size > payloadLen-off {
			return Set{}, fmt.Errorf("ipset: v2 container %d: %d payload bytes at offset %d out of bounds", i, size, off)
		}
		body := payload[off : off+size]
		switch c.kind {
		case arrKind, runKind:
			if alias {
				c.arr = unsafe.Slice((*uint16)(unsafe.Pointer(&data[off])), elems)
			} else {
				c.arr = make([]uint16, elems)
				for j := range c.arr {
					c.arr[j] = v2LE.Uint16(body[2*j:])
				}
			}
		case bmpKind:
			if alias {
				c.bits = unsafe.Slice((*uint64)(unsafe.Pointer(&data[off])), bmpWords)
			} else {
				c.bits = make([]uint64, bmpWords)
				for j := range c.bits {
					c.bits[j] = v2LE.Uint64(body[8*j:])
				}
			}
		}
		if err := validateCtr(c, int(elems)); err != nil {
			return Set{}, fmt.Errorf("ipset: v2 container %d (key %#04x): %w", i, c.key, err)
		}
		cs.n += int(c.card)
	}
	if uint64(cs.n) != total {
		return Set{}, fmt.Errorf("ipset: v2 cardinality %d, containers sum to %d", total, cs.n)
	}
	return Set{comp: cs}, nil
}

// validateCtr checks the structural invariants every query path relies
// on: sorted arrays, ordered non-overlapping runs, and cardinalities
// that match the payload. A file that passes cannot make contains,
// selectInto, or the block counters misbehave.
func validateCtr(c *ctr, elems int) error {
	switch c.kind {
	case arrKind:
		if elems != int(c.card) {
			return fmt.Errorf("array with %d values, cardinality %d", elems, c.card)
		}
		for j := 1; j < len(c.arr); j++ {
			if c.arr[j] <= c.arr[j-1] {
				return fmt.Errorf("array not strictly ascending at %d", j)
			}
		}
	case runKind:
		if elems == 0 || elems&1 != 0 {
			return fmt.Errorf("run container with %d values", elems)
		}
		span := uint64(0)
		prevLast := -1
		for j := 0; j < len(c.arr); j += 2 {
			start, last := int(c.arr[j]), int(c.arr[j+1])
			if start > last || start <= prevLast {
				return fmt.Errorf("run %d [%d, %d] out of order", j/2, start, last)
			}
			span += uint64(last - start + 1)
			prevLast = last
		}
		if span != uint64(c.card) {
			return fmt.Errorf("runs span %d values, cardinality %d", span, c.card)
		}
	case bmpKind:
		pop := 0
		for _, w := range c.bits {
			pop += bits.OnesCount64(w)
		}
		if pop != int(c.card) {
			return fmt.Errorf("bitmap popcount %d, cardinality %d", pop, c.card)
		}
	}
	return nil
}

// Mapped is a Set served from a memory-mapped v2 file. The Set is valid
// until Close; copies of it (or sets derived from it) must not outlive
// the mapping.
type Mapped struct {
	Set    Set
	mapped []byte // non-nil only for a real mmap
}
