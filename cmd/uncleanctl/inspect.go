package main

import (
	"flag"
	"fmt"

	"unclean/internal/core"
	"unclean/internal/locality"
	"unclean/internal/netaddr"
)

// cmdInspect implements the paper's §7 log-analysis suggestion as a
// workflow: given one address of interest, pull every flow from its
// network out of the October traffic, summarize the co-located sources,
// and annotate the block with its multidimensional uncleanliness score.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	scaleDen, seed, draws, benign := commonFlags(fs)
	addrStr := fs.String("addr", "", "address of interest (required)")
	bits := fs.Int("bits", 24, "network prefix length to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrStr == "" {
		return fmt.Errorf("inspect: -addr is required")
	}
	if err := checkBits("inspect", *bits); err != nil {
		return err
	}
	addr, err := netaddr.ParseAddr(*addrStr)
	if err != nil {
		return err
	}
	cfg, err := configFrom(*scaleDen, *seed, *draws, *benign)
	if err != nil {
		return err
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return err
	}
	block := addr.Block(*bits)
	summaries := locality.BlockActivity(ds.Flows, block)
	fmt.Print(locality.RenderBlockActivity(block, summaries))

	scorer, err := ds.Scores(*bits)
	if err != nil {
		return err
	}
	sc := scorer.Score(addr)
	fmt.Printf("\nuncleanliness score of %s: aggregate %.3f (bot %.2f, scan %.2f, spam %.2f, phish %.2f)\n",
		block, sc.Aggregate,
		sc.ByDim[core.DimBot], sc.ByDim[core.DimScan], sc.ByDim[core.DimSpam], sc.ByDim[core.DimPhish])
	if n, ok := ds.World.Model.FindNetwork(addr); ok {
		fmt.Printf("ground truth: uncleanliness %.2f, profile %s, %d active hosts\n",
			n.Unclean, n.Profile, n.Hosts)
	} else {
		fmt.Println("ground truth: no modeled network at this address")
	}
	return nil
}
