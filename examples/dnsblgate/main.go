// DNSBLGate: uncleanliness as an operational mail defense. An
// uncleanliness-scored block list is served over real UDP DNS (the
// Spamhaus-ZEN convention the paper cites), and a simulated inbound mail
// gateway consults it for every SMTP sender in the October traffic —
// then scores its accept/reject decisions against ground truth.
//
// Run with: go run ./examples/dnsblgate
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

func main() {
	ds, err := experiments.Build(experiments.Quick())
	if err != nil {
		log.Fatal(err)
	}

	// Score the October reports into a /24 list and serve it as a DNSBL
	// zone on loopback UDP.
	scorer, err := ds.Scores(24)
	if err != nil {
		log.Fatal(err)
	}
	list := blocklist.FromSet(scorer.Blocklist(0.5), 24, "spam evidence").Aggregate()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	const zone = "bl.unclean.example"
	srv, err := dnsbl.NewServer(zone, list, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.ServeConns(ctx, []net.PacketConn{conn}, dnsbl.ShardConfig{}) //nolint:errcheck // returns on close
	fmt.Printf("DNSBL %s serving %d aggregated rules on %s\n", zone, list.Len(), conn.LocalAddr())

	// The gateway: every distinct SMTP sender in the traffic gets one
	// real DNSBL query; listed senders are rejected.
	senders := ipset.NewBuilder(0)
	for i := range ds.Flows {
		if ds.Flows[i].DstPort == 25 && ds.Flows[i].Proto == netflow.ProtoTCP {
			senders.Add(ds.Flows[i].SrcAddr)
		}
	}
	senderSet := senders.Build()
	spammers := ds.Report("spam").Addrs

	var rejected, accepted, rejectedSpammers, acceptedSpammers int
	senderSet.Each(func(sender netaddr.Addr) bool {
		listed, _, err := dnsbl.Lookup(conn.LocalAddr().String(), zone, sender, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		isSpammer := spammers.Contains(sender)
		if listed {
			rejected++
			if isSpammer {
				rejectedSpammers++
			}
		} else {
			accepted++
			if isSpammer {
				acceptedSpammers++
			}
		}
		return true
	})
	stats := srv.Snapshot()
	fmt.Printf("gateway processed %d SMTP senders via %d DNSBL queries (%d listed)\n",
		senderSet.Len(), stats.Queries, stats.Hits)
	fmt.Printf("rejected %d senders (%d known spammers); accepted %d (%d spammers slipped through)\n",
		rejected, rejectedSpammers, accepted, acceptedSpammers)
	if rejected > 0 && rejectedSpammers > 0 {
		precision := float64(rejectedSpammers) / float64(rejected)
		recall := float64(rejectedSpammers) / float64(rejectedSpammers+acceptedSpammers)
		fmt.Printf("spam rejection precision %.2f, recall %.2f\n", precision, recall)
	}
}
