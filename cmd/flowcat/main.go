// Command flowcat dumps and filters NetFlow V5 archives as written by
// uncleanctl reports (and any other tool using the netflow package).
//
// Usage:
//
//	flowcat [-src CIDR] [-dst CIDR] [-proto N] [-payload] [-block FILE [-eval]] [-count] FILE...
//
// With -block FILE the archive is matched against a compiled CIDR
// blocklist (one block per line, optional reason after whitespace, #
// comments): by default only flows from blocked sources are emitted;
// with -eval the whole archive is streamed through the blocklist
// evaluation engine and a virtual-blocking summary is printed instead.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/obs"
)

// logger carries diagnostics as structured records on stderr; matching
// flow records (the data) go to stdout.
var logger = obs.Logger("flowcat")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logger.Error("run failed", "error", err)
		os.Exit(1)
	}
}

type filter struct {
	src, dst    *netaddr.Block
	proto       int
	payloadOnly bool
	// blocked, when set, keeps only flows whose source the compiled
	// blocklist matches (ignored in -eval mode, which scores both sides).
	blocked *blocklist.Matcher
}

func (f *filter) match(r *netflow.Record) bool {
	if f.src != nil && !f.src.Contains(r.SrcAddr) {
		return false
	}
	if f.dst != nil && !f.dst.Contains(r.DstAddr) {
		return false
	}
	if f.proto >= 0 && int(r.Proto) != f.proto {
		return false
	}
	if f.payloadOnly && !r.PayloadBearing() {
		return false
	}
	if f.blocked != nil && !f.blocked.Blocks(r.SrcAddr) {
		return false
	}
	return true
}

// loadBlocklist parses a CIDR-per-line blocklist file: "BLOCK [reason]",
// blank lines and # comments ignored.
func loadBlocklist(path string) (*blocklist.Trie, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	tr := &blocklist.Trie{}
	sc := bufio.NewScanner(file)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		b, err := netaddr.ParseBlock(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		reason := "listed"
		if len(fields) > 1 {
			reason = strings.Join(fields[1:], " ")
		}
		tr.Insert(b, reason)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// evalChunk is the record batch size the -eval mode streams through the
// evaluator; the archive is never materialized.
const evalChunk = 8192

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flowcat", flag.ContinueOnError)
	srcStr := fs.String("src", "", "only flows whose source is inside this CIDR")
	dstStr := fs.String("dst", "", "only flows whose destination is inside this CIDR")
	proto := fs.Int("proto", -1, "only flows with this IP protocol (6=TCP, 17=UDP)")
	payload := fs.Bool("payload", false, "only payload-bearing flows")
	count := fs.Bool("count", false, "print only the matching record count")
	blockFile := fs.String("block", "", "CIDR blocklist file; emit only flows from blocked sources")
	eval := fs.Bool("eval", false, "with -block: stream the archive through the evaluation engine and print a blocking summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files")
	}
	var f filter
	f.proto = *proto
	f.payloadOnly = *payload
	if *srcStr != "" {
		b, err := netaddr.ParseBlock(*srcStr)
		if err != nil {
			return err
		}
		f.src = &b
	}
	if *dstStr != "" {
		b, err := netaddr.ParseBlock(*dstStr)
		if err != nil {
			return err
		}
		f.dst = &b
	}
	s := sink{countOnly: *count, out: out}
	if *blockFile != "" {
		tr, err := loadBlocklist(*blockFile)
		if err != nil {
			return err
		}
		logger.Debug("blocklist loaded", "rules", tr.Len())
		if *eval {
			ms, err := blocklist.CompileSet([]*blocklist.Trie{tr})
			if err != nil {
				return err
			}
			s.sv = blocklist.NewSweepEvaluator(ms)
		} else {
			f.blocked = blocklist.Compile(tr)
		}
	} else if *eval {
		return fmt.Errorf("-eval requires -block FILE")
	}
	for _, path := range fs.Args() {
		before := s.matched
		if err := catFile(path, &f, &s); err != nil {
			return err
		}
		logger.Debug("archive read", "path", path, "matched", s.matched-before)
	}
	s.flush()
	if s.sv != nil {
		e := s.sv.Results()[0]
		fmt.Fprintf(out, "flows: blocked=%d passed=%d payload-blocked=%d\n",
			e.FlowsBlocked, e.FlowsPassed, e.PayloadBlocked)
		fmt.Fprintf(out, "sources: blocked=%d passed=%d\n",
			e.BlockedSources.Len(), e.PassedSources.Len())
		return nil
	}
	if *count {
		fmt.Fprintln(out, s.matched)
	}
	return nil
}

// sink consumes matching records: printing them, counting them, or
// batching them through the streaming evaluator.
type sink struct {
	countOnly bool
	matched   int
	out       io.Writer
	sv        *blocklist.SweepEvaluator // the one -block list, in -eval mode
	buf       []netflow.Record
}

func (s *sink) consume(rec netflow.Record) {
	s.matched++
	if s.sv != nil {
		s.buf = append(s.buf, rec)
		if len(s.buf) >= evalChunk {
			s.flush()
		}
		return
	}
	if !s.countOnly {
		fmt.Fprintln(s.out, rec.String())
	}
}

func (s *sink) flush() {
	if s.sv != nil && len(s.buf) > 0 {
		s.sv.Consume(s.buf)
		s.buf = s.buf[:0]
	}
}

func catFile(path string, f *filter, s *sink) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	r := netflow.NewReader(file)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !f.match(&rec) {
			continue
		}
		s.consume(rec)
	}
}
