//go:build chaos_long

package dnsbl

// Long-haul shard chaos, build-tagged chaos_long: the reload hammer and
// send-fault soak from shard_chaos_test.go run an order of magnitude
// longer, with more shards and faults active at the same time as the
// reloads. CI runs these under -race in the dedicated chaos job.

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/faults"
	"unclean/internal/netaddr"
	"unclean/internal/retry"
	"unclean/internal/stats"
)

func TestChaosLongShardedReloadHammerWithFaults(t *testing.T) {
	listBot := &blocklist.Trie{}
	listBot.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "bot")
	listSpam := &blocklist.Trie{}
	listSpam.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "spam")

	srv, err := NewServer("bl.chaos.example", listBot, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Faults and reloads at once: 20% of response writes fail while the
	// list swaps continuously under four shards.
	flaky := faults.NewFlakyConn(conn, faults.ConnConfig{WriteErr: 0.2}, 20061015)
	addr := conn.LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeConns(ctx, []net.PacketConn{flaky}, ShardConfig{Shards: 4, Batch: 8})
	}()

	var stopSwaps atomic.Bool
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; !stopSwaps.Load(); i++ {
			if i%2 == 0 {
				srv.SetList(listSpam)
			} else {
				srv.SetList(listBot)
			}
		}
		srv.SetList(listSpam)
	}()

	p := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 1, RNG: stats.NewRNG(9)}
	probe := netaddr.MustParseAddr("10.1.1.9")
	deadline := time.Now().Add(15 * time.Second)
	lookups := 0
	for time.Now().Before(deadline) {
		listed, code, err := LookupCtx(context.Background(), addr, "bl.chaos.example",
			probe, 200*time.Millisecond, p)
		if err != nil {
			t.Fatalf("lookup %d during long hammer: %v", lookups, err)
		}
		if !listed || (code != CodeBot && code != CodeSpam) {
			t.Fatalf("torn verdict during long hammer: listed=%v code=%s", listed, code)
		}
		lookups++
	}
	stopSwaps.Store(true)
	<-swapped

	for i := 0; i < 50; i++ {
		listed, code, err := LookupCtx(context.Background(), addr, "bl.chaos.example",
			probe, 200*time.Millisecond, p)
		if err != nil {
			t.Fatalf("post-hammer lookup %d: %v", i, err)
		}
		if !listed || code != CodeSpam {
			t.Fatalf("stale-generation verdict after final reload: listed=%v code=%s", listed, code)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeConns: %v", err)
	}
	conn.Close()

	st := srv.Snapshot()
	if st.Shed == 0 {
		t.Error("20% write faults over 15s produced no sheds")
	}
	if st.Dropped != 0 {
		t.Errorf("transient faults miscounted as hard drops: %d", st.Dropped)
	}
	fmt.Printf("chaos long hammer: lookups=%d shed=%d queries=%d\n",
		lookups, st.Shed, st.Queries)
}
