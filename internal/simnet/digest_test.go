package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"unclean/internal/netaddr"
)

// worldDigest is the SHA-256 of everything NewWorld generates past the
// model: the episodes, the per-day episode index, the phishing feed, the
// bot-test report and the DDoS campaigns.
func worldDigest(w *World) string {
	h := sha256.New()
	var b []byte
	flush := func() {
		if len(b) > 1<<16 {
			h.Write(b)
			b = b[:0]
		}
	}
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put(uint64(len(w.episodes)))
	for _, ep := range w.episodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(ep.netIdx))
		b = append(b, ep.hostIdx, ep.flags)
		b = binary.LittleEndian.AppendUint16(b, uint16(ep.startDay))
		b = binary.LittleEndian.AppendUint16(b, uint16(ep.endDay))
		flush()
	}
	put(uint64(len(w.episodesByDay)))
	for _, day := range w.episodesByDay {
		put(uint64(len(day)))
		for _, idx := range day {
			b = binary.LittleEndian.AppendUint32(b, uint32(idx))
		}
		flush()
	}
	incs := w.phish.Incidents()
	put(uint64(len(incs)))
	for _, inc := range incs {
		put(uint64(inc.Reported.UnixNano()))
		b = binary.LittleEndian.AppendUint32(b, uint32(inc.Addr))
		put(uint64(len(inc.URL)))
		b = append(b, inc.URL...)
		flush()
	}
	put(uint64(w.botTest.Len()))
	w.botTest.Each(func(a netaddr.Addr) bool {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
		return true
	})
	put(uint64(w.botTestBlocks.Len()))
	w.botTestBlocks.Each(func(a netaddr.Addr) bool {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
		return true
	})
	put(uint64(len(w.campaigns)))
	for _, c := range w.campaigns {
		put(uint64(c.Day))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Target))
		b = binary.LittleEndian.AppendUint16(b, c.TargetPort)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

func buildWorld(t testing.TB, scale float64, seed uint64) *World {
	t.Helper()
	cfg := DefaultConfig(scale)
	cfg.Seed = seed
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorldDigest pins the world at 1/64 scale for the benchmark's two
// golden seeds; the model under it is pinned by netmodel's
// TestModelDigest.
func TestWorldDigest(t *testing.T) {
	for _, c := range []struct {
		seed     uint64
		episodes int
		digest   string
	}{
		{20061001, 38509, "3b513e75c0c75637fcc76e87e9822013412487218315605751ea8aadf49c94b8"},
		{424242, 48183, "14e1782f15f0c2f7f3a34c047ba597d0ec6ad851b692ef453b4b04b73c96690d"},
	} {
		t.Run(fmt.Sprintf("seed=%d", c.seed), func(t *testing.T) {
			w := buildWorld(t, 1.0/64, c.seed)
			if got := w.EpisodeCount(); got != c.episodes {
				t.Errorf("%d episodes, want %d", got, c.episodes)
			}
			if got := worldDigest(w); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}

var worldSink *World

// BenchmarkNewWorld builds the 1/64-scale world.
func BenchmarkNewWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		worldSink = buildWorld(b, 1.0/64, 20061001)
	}
}
