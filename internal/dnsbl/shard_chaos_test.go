package dnsbl

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/faults"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/retry"
	"unclean/internal/stats"
)

// Chaos coverage for the shard loop: injected send faults must surface
// as per-shard shed counters while the server keeps answering, and live
// blocklist reloads racing the readers must never serve a verdict from
// a list that is no longer live.

// TestChaosShardedShedsOnSendFaults drives the sharded server through a
// fault-injecting conn that fails 40% of response writes with a
// transient error. The shard loop must treat each failure as a shed
// (counted per shard and in the server's shed counters), keep the batch
// moving, and recover: with retries every lookup still succeeds.
func TestChaosShardedShedsOnSendFaults(t *testing.T) {
	srv, err := NewServer("bl.chaos.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faults.NewFlakyConn(conn, faults.ConnConfig{WriteErr: 0.4}, 20061014)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeConns(ctx, []net.PacketConn{flaky}, ShardConfig{Shards: 2, Batch: 8})
	}()

	p := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 1, RNG: stats.NewRNG(7)}
	addr := conn.LocalAddr().String()
	for i := 0; i < 30; i++ {
		probe := netaddr.MustParseAddr(fmt.Sprintf("10.1.1.%d", i+1))
		listed, code, err := LookupCtx(context.Background(), addr, "bl.chaos.example",
			probe, 200*time.Millisecond, p)
		if err != nil {
			t.Fatalf("lookup %s under send faults: %v", probe, err)
		}
		if !listed || code != CodeBot {
			t.Errorf("lookup %s = listed=%v code=%s, want bot", probe, listed, code)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeConns: %v", err)
	}
	conn.Close()

	st := srv.Snapshot()
	if st.Shed == 0 {
		t.Fatal("40% write faults produced no sheds")
	}
	sums := shardSeries(t, srv, 2)
	shardShed, shardPkts := uint64(sums["shed"]), uint64(sums["packets"])
	if shardShed != st.Shed {
		t.Errorf("per-shard shed sum %d != server shed %d", shardShed, st.Shed)
	}
	// Recovery: every lookup eventually succeeded, so the shards kept
	// answering past each fault — handled packets must far exceed sheds.
	if shardPkts <= shardShed {
		t.Errorf("shards never recovered: %d packets vs %d sheds", shardPkts, shardShed)
	}
	if st.Dropped != 0 {
		t.Errorf("transient faults were miscounted as hard drops: %d", st.Dropped)
	}
	// The watchdog's shed rule reads ShedRate(time.Minute) as a permille
	// series, refreshed on scrape.
	vals, err := obs.Samples(srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	want := math.Round(srv.ShedRate(time.Minute) * 1000)
	if got := vals[`unclean_dnsbl_shed_1m_permille{zone="bl.chaos.example"}`]; want == 0 || got != want {
		t.Errorf("shed_1m_permille scraped %v, want ShedRate(1m)×1000 = %v (nonzero)", got, want)
	}
	fmt.Fprintf(os.Stderr, "chaos sharded: shed=%d packets=%d queries=%d\n", shardShed, shardPkts, st.Queries)
}

// TestChaosShardedReloadHammer swaps the blocklist continuously while
// shards serve a hot address that flips between two listings. Run under
// -race this is the list-swap data-race hammer; in any mode it asserts
// that every response matches one of the two live lists (never a torn
// or foreign verdict), and that once the hammer parks on a final list,
// the very next responses reflect it — a stale verdict would keep
// answering from a dead list.
func TestChaosShardedReloadHammer(t *testing.T) {
	listBot := &blocklist.Trie{}
	listBot.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "bot")
	listSpam := &blocklist.Trie{}
	listSpam.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "spam")

	srv, err := NewServer("bl.chaos.example", listBot, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := ListenShards("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := conns[0].LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, ShardConfig{Batch: 8}) }()

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
		srv.SetList(listSpam) // park on a known final generation
	}()

	probe := netaddr.MustParseAddr("10.1.1.9")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		listed, code, err := Lookup(addr, "bl.chaos.example", probe, 2*time.Second)
		if err != nil {
			t.Fatalf("lookup during reload hammer: %v", err)
		}
		if !listed || (code != CodeBot && code != CodeSpam) {
			t.Fatalf("torn verdict during reload: listed=%v code=%s", listed, code)
		}
	}
	stopSwaps.Store(true)
	<-swapped

	// The hammer has parked on listSpam. Every response from here on
	// must carry the spam code. Several queries so both shards are
	// exercised.
	for i := 0; i < 20; i++ {
		listed, code, err := Lookup(addr, "bl.chaos.example", probe, 2*time.Second)
		if err != nil {
			t.Fatalf("post-hammer lookup %d: %v", i, err)
		}
		if !listed || code != CodeSpam {
			t.Fatalf("stale-generation verdict after final reload: listed=%v code=%s, want spam", listed, code)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeConns: %v", err)
	}
}
