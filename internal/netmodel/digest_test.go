package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"unclean/internal/stats"
)

// worldModel builds the model simnet.NewWorld builds at the given scale
// and seed: the same derived sizes and the same forked RNG.
func worldModel(t testing.TB, scale float64, seed uint64) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TargetNetworks = max(int(8e6*scale), 2000)
	cfg.Slash16PerSlash8 = max(266*scale, 1)
	m, err := New(cfg, stats.NewRNG(seed).Fork(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelDigest is the SHA-256 of every field of every network, in order,
// then the cumulative weights and the total mass.
func modelDigest(m *Model) string {
	h := sha256.New()
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.nets)))
	for i := range m.nets {
		n := &m.nets[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(n.Base))
		b = binary.LittleEndian.AppendUint64(b, uint64(n.Hosts))
		b = append(b, n.start, byte(n.Profile))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.Unclean))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.PhishUnclean))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.weight))
		if len(b) > 1<<16 {
			h.Write(b)
			b = b[:0]
		}
	}
	for _, c := range m.cum {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		if len(b) > 1<<16 {
			h.Write(b)
			b = b[:0]
		}
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.totalMass))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelDigest pins the generated model at the world's 1/64 and 1/8
// scales for the benchmark's two golden seeds, so a change to how New
// builds the model cannot change what it builds.
func TestModelDigest(t *testing.T) {
	for _, c := range []struct {
		scaleDen float64
		seed     uint64
		networks int
		digest   string
	}{
		{64, 20061001, 114619, "53b803bdae8e0026bf7840c8c2e819f439b17bfaae06bc5d7ec74edef72cc054"},
		{64, 424242, 127196, "586455b140321650350b0e480a1331873e3b85987c2c03e292e38d6818c5b601"},
		{8, 20061001, 939278, "7cbe0399c9007aafcd231126e1f9bedbdf1146ce5460398bf91d1f6cb93874d1"},
		{8, 424242, 959444, "48e8de013e769bc0d4def1ed426c9352eff22315eb48115f693e10775df305be"},
	} {
		t.Run(fmt.Sprintf("scale=1/%g/seed=%d", c.scaleDen, c.seed), func(t *testing.T) {
			m := worldModel(t, 1/c.scaleDen, c.seed)
			if got := m.NetworkCount(); got != c.networks {
				t.Errorf("%d networks, want %d", got, c.networks)
			}
			if got := modelDigest(m); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}

var modelSink *Model

// BenchmarkModelNew builds the world's model at 1/64 scale.
func BenchmarkModelNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modelSink = worldModel(b, 1.0/64, 20061001)
	}
}
