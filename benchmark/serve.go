package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/dnsbl"
	"unclean/internal/experiments"
	"unclean/internal/netaddr"
	"unclean/internal/report"
	"unclean/internal/stats"
	"unclean/internal/tracker"
)

// The serve workloads start the real dnsbld on the four ground-truth
// reports of experiments.Build (the list dnsbld serves in world mode)
// and load it from this process over one UDP socket.

const (
	// zone and listThreshold are dnsbld's -zone and -threshold defaults;
	// its -halflife default is tracker.DefaultConfig's.
	zone          = "bl.unclean.example"
	listThreshold = 0.6
	// zipfS skews serve-zipf's addresses the way a mail host's clients
	// repeat.
	zipfS = 1.1
	// streamLen is the length of the precomputed query stream, cycled.
	streamLen = 1 << 20
	// poolSeedMix derives the address shuffle and query stream from the
	// seed.
	poolSeedMix = 0x5e7e
)

// serveInputs is what the load generator sends and what it must get back.
type serveInputs struct {
	pool []netaddr.Addr // reported and control addresses, shuffled
	want []uint8        // per pool entry: the 127.0.0.x answer's last octet, 0 if not listed
	seq  []uint32       // the query stream, as pool indices
}

func runServe(ctx context.Context, o *options, r *runReport, tr *tracer) error {
	dir := filepath.Join(o.work, "reports")
	sp := tr.begin("bench.inputs")
	in, digest, err := makeServeInputs(o, dir)
	tr.end(sp)
	if err != nil {
		return err
	}
	r.checkGolden(o, golden{Digest: digest})
	sp = tr.begin("bench.expected")
	tk, err := trackerFromDir(dir)
	if err == nil {
		in.want = make([]uint8, len(in.pool))
		for i, a := range in.pool {
			in.want[i] = verdict(tk, a)
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	listed := 0
	for _, pi := range in.seq {
		if in.want[pi] != 0 {
			listed++
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("reports digest %s; %d addresses, %d listed /24s, %.4f of the query stream listed",
		digest, len(in.pool), tk.Blocklist(listThreshold).Len(), float64(listed)/float64(len(in.seq))))
	debug.FreeOSMemory() // leave the generator a small heap, and the machine Build's memory

	args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-shards", "1",
		"-selfcheck", "0", "-reports", dir, "-log-format", "json"}
	if o.workload == "serve-reload" {
		args = append(args, "-reload", "250ms")
	}
	probe := 0
	for i, w := range in.want {
		if w != 0 {
			probe = i
			break
		}
	}

	var d *daemon
	stop := func() {
		// A crash on the way down changes no answer already checked: it
		// is reported, not counted as a failed query.
		if err := d.stop(); err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("dnsbld did not shut down cleanly: %v", err))
		}
		d = nil
	}
	defer func() {
		if d != nil {
			stop()
		}
	}()
	var setup []float64
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			stop()
		}
		sp := tr.begin("dnsbld.start")
		var ready time.Duration
		d, err = startDaemon(ctx, o.dnsbld, args)
		if err == nil {
			ready, err = d.firstAnswer(ctx, r, in.pool[probe], in.want[probe])
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		setup = append(setup, ready.Seconds())
	}

	pid := d.cmd.Process.Pid
	before, err := scrape(ctx, d.metrics)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	sp = tr.begin("loadgen.run")
	lr, err := runLoad(ctx, d.udp, in, time.Duration(o.seconds)*time.Second)
	tr.end(sp)
	if err != nil {
		return err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, d.metrics)
	if err != nil {
		return err
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return err
	}
	stop()

	r.Attempted += lr.sent
	r.Failed += lr.wrong + lr.timeouts
	if lr.wrong > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d wrong answers, first: %s", lr.wrong, lr.firstWrong))
	}
	if lr.timeouts > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d queries unanswered after %s", lr.timeouts, queryTimeout))
	}
	answered := float64(lr.answered + lr.wrong)
	// Per whole second: answers, and their 99th percentile. Their medians
	// are the run's rate and p99, so one second's stall does not decide
	// the run; the stall still shows in the p999 and tail. The p99 is
	// per-layer, not end-to-end: it is set by how two busy processes
	// share two vCPUs, and its spread over seeds reached 0.9.
	var lat, perSec, p99s []float64
	for i, sec := range lr.lat {
		s := sortedNanos(sec)
		lat = append(lat, s...)
		if i < len(lr.lat)-1 { // a whole second of the run
			perSec = append(perSec, float64(len(s)))
			p99s = append(p99s, sortedQuantile(s, 0.99))
		}
	}
	sort.Float64s(lat)
	r.E2E["setup_s"] = median(setup)
	r.E2E["p50_ms"] = sortedQuantile(lat, 0.5) / 1e6
	r.E2E["cpu_ms_per_op"] = (cpu1 - cpu0).Seconds() / answered * 1e3
	r.E2E["peak_rss_mb"] = hwm / 1024

	// Generator honesty: a saturated generator measures itself.
	busy := lr.cpu.Seconds() / lr.wall.Seconds()
	if busy > 0.9 {
		r.Notes = append(r.Notes, fmt.Sprintf("generator-bound: the load generator was %.0f%% busy, so loadgen.qps is a floor on the daemon's rate and p50_ms a ceiling on its round trip", busy*100))
	}
	tail, tailQ := tailLatency(lat)
	r.Notes = append(r.Notes, fmt.Sprintf("%d queries sent, %d answered, %d stray; round trip over all %d: p99 %.1f us, p999 %.1f us, tail p%.6g %.1f us",
		lr.sent, lr.answered, lr.stray, len(lat), sortedQuantile(lat, 0.99)/1e3, sortedQuantile(lat, 0.999)/1e3, tailQ*100, tail/1e3))

	l := r.Layers
	delta := func(name string) float64 { return after.values[name] - before.values[name] }
	packets := delta("unclean_dnsbl_shard_packets_total")
	l["dnsbl.batch_size"] = packets / delta("unclean_dnsbl_shard_batches_total")
	l["dnsbl.cache_hit_frac"] = delta("unclean_dnsbl_shard_cache_hits_total") / delta("unclean_dnsbl_shard_fastpath_total")
	l["dnsbl.slowpath_frac"] = delta("unclean_dnsbl_shard_slowpath_total") / packets
	l["dnsbl.handle_p50_ns"] = after.p50["unclean_dnsbl_query_seconds"] * 1e9
	l["dnsbl.handle_p99_ns"] = after.p99["unclean_dnsbl_query_seconds"] * 1e9
	l["dnsbl.shed"] = delta("unclean_dnsbl_shed_total")
	l["dnsbl.dropped"] = delta("unclean_dnsbl_dropped_total")
	l["dnsbl.kernel_drops"] = float64(lr.sent) - packets
	l["dnsbld.reloads"] = delta("unclean_feed_loads_total")
	l["dnsbld.gc_pause_p99_us"] = after.values["unclean_runtime_gc_pause_p99_ns"] / 1e3
	l["dnsbld.heap_live_mb"] = after.values["unclean_runtime_heap_live_bytes"] / (1 << 20)
	l["loadgen.qps"] = median(perSec)
	l["loadgen.rtt_p99_us"] = median(p99s) / 1e3
	l["loadgen.rtt_p999_us"] = sortedQuantile(lat, 0.999) / 1e3
	l["loadgen.cpu_us_per_query"] = lr.cpu.Seconds() / float64(lr.sent) * 1e6
	l["loadgen.busy_frac"] = busy
	l["loadgen.tail_us"] = tail / 1e3
	l["loadgen.samples"] = float64(len(lat))
	if tr != nil {
		return traceServeLayers(dir, in, tk, listed, r, tr)
	}
	return nil
}

// traceServeLayers times, in this process, the two pieces of the daemon
// the serve workloads lean on: a compiled-list lookup over the
// workload's address stream, and one reload (ingest, tracker, compile)
// of the same report directory. The daemon's own spans are untouched, so
// tracing adds nothing to the measured load.
func traceServeLayers(dir string, in *serveInputs, tk *tracker.Tracker, listed int, r *runReport, tr *tracer) error {
	m := blocklist.Compile(referenceList(tk))
	sp := tr.begin("blocklist.lookup")
	start := time.Now()
	hits := 0
	for _, pi := range in.seq {
		if _, hit := m.Lookup(in.pool[pi]); hit {
			hits++
		}
	}
	r.Layers["blocklist.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(in.seq))
	tr.end(sp)
	r.check(hits == listed, "compiled list listed %d of the query stream, the tracker %d", hits, listed)

	var reloads []float64
	for i := 0; i < setupRepeats; i++ {
		sp := tr.begin("dnsbld.reload")
		start := time.Now()
		tk, err := trackerFromDir(dir)
		if err != nil {
			return err
		}
		blocklist.Compile(referenceList(tk))
		reloads = append(reloads, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(sp)
	}
	r.Layers["dnsbld.reload_ms"] = median(reloads)
	return nil
}

// makeServeInputs writes the four ground-truth reports of
// experiments.Build into dir, as dnsbld's world mode would list them,
// and draws the query stream over the reported and control addresses:
// Zipf-skewed for serve-zipf, uniform for serve-reload. It returns the
// inputs and a digest of the report files.
func makeServeInputs(o *options, dir string) (*serveInputs, string, error) {
	cfg := experiments.Default()
	cfg.Scale = 1 / o.scaleDen
	cfg.Seed = o.seed
	cfg.Draws = 1 // only the reports are needed, as in dnsbld's world mode
	ds, err := experiments.Build(cfg)
	if err != nil {
		return nil, "", err
	}
	inv := &report.Inventory{}
	for _, tag := range []string{"bot", "scan", "spam", "phish"} {
		inv.Add(ds.Report(tag))
	}
	if err := inv.SaveDir(dir); err != nil {
		return nil, "", err
	}
	digest, err := digestDir(dir)
	if err != nil {
		return nil, "", err
	}

	in := &serveInputs{pool: inv.Addrs().Union(ds.Report("control").Addrs).Addrs()}
	rng := stats.NewRNG(o.seed ^ poolSeedMix)
	for i := len(in.pool) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		in.pool[i], in.pool[j] = in.pool[j], in.pool[i]
	}
	in.seq = make([]uint32, streamLen)
	if o.workload == "serve-zipf" {
		z := stats.NewZipf(rng, len(in.pool), zipfS)
		for i := range in.seq {
			in.seq[i] = uint32(z.Draw())
		}
	} else {
		for i := range in.seq {
			in.seq[i] = uint32(rng.Intn(len(in.pool)))
		}
	}
	return in, digest, nil
}

// digestDir hashes the names and contents of the files in dir.
func digestDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range entries { // ReadDir sorts by name
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// classDims maps a report class to the tracker dimension dnsbld files
// its evidence under.
var classDims = map[report.Class]core.Dimension{
	report.ClassBots:     core.DimBot,
	report.ClassScanning: core.DimScan,
	report.ClassSpamming: core.DimSpam,
	report.ClassPhishing: core.DimPhish,
}

// dimCodes is the DNSBL return code for a listing dominated by each
// dimension.
var dimCodes = [...]netaddr.Addr{
	core.DimBot:   dnsbl.CodeBot,
	core.DimScan:  dnsbl.CodeScan,
	core.DimSpam:  dnsbl.CodeSpam,
	core.DimPhish: dnsbl.CodePhish,
}

// trackerFromDir rebuilds, through the public report and tracker API,
// the tracker dnsbld -reports builds from dir: each report's evidence
// dated at the end of its validity window.
func trackerFromDir(dir string) (*tracker.Tracker, error) {
	inv, err := report.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	tk, err := tracker.New(tracker.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, rep := range inv.Reports {
		if dim, ok := classDims[rep.Class]; ok {
			if err := tk.Observe(dim, rep.Addrs, rep.ValidTo); err != nil {
				return nil, err
			}
		}
	}
	return tk, nil
}

// dominant returns the dimension with the highest score (the first on a
// tie), or false when no dimension scores.
func dominant(sc core.Score) (core.Dimension, bool) {
	best, dim, ok := 0.0, core.DimBot, false
	for d := core.DimBot; d <= core.DimPhish; d++ {
		if sc.ByDim[d] > best {
			best, dim, ok = sc.ByDim[d], d, true
		}
	}
	return dim, ok
}

// verdict is the answer dnsbld owes a query for a: the last octet of its
// 127.0.0.x code when a's /24 scores at least the listing threshold, 0
// when it is not listed.
func verdict(tk *tracker.Tracker, a netaddr.Addr) uint8 {
	sc := tk.Score(a)
	if sc.Aggregate < listThreshold {
		return 0
	}
	code := dnsbl.CodeGeneric
	if d, ok := dominant(sc); ok {
		code = dimCodes[d]
	}
	_, _, _, o3 := code.Octets()
	return o3
}

// referenceList is the /24 list the tracker implies, each rule named
// after its dominant dimension.
func referenceList(tk *tracker.Tracker) *blocklist.Trie {
	t := &blocklist.Trie{}
	for _, b := range tk.Blocklist(listThreshold).Blocks(24) {
		reason := "unclean"
		if d, ok := dominant(tk.Score(b.Base())); ok {
			reason = d.String()
		}
		t.Insert(b, reason)
	}
	return t
}

// daemon is one running dnsbld.
type daemon struct {
	cmd     *exec.Cmd
	udp     string
	metrics string
	start   time.Time
	readers sync.WaitGroup // the stdout and stderr scanners
	exited  chan struct{}  // closed once both readers are done: the process is gone
	stopped bool

	mu   sync.Mutex
	tail []string // the last stderr lines, for errors
}

// panicLine returns the panic message among the daemon's last lines of
// standard error, or the last line.
func (d *daemon) panicLine() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.tail {
		if strings.HasPrefix(l, "panic:") {
			return l
		}
	}
	if len(d.tail) == 0 {
		return ""
	}
	return d.tail[len(d.tail)-1]
}

// stderrTail returns the daemon's last lines of standard error.
func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

var servingLine = regexp.MustCompile(` on (\S+) \(`)

// startDaemon execs dnsbld and waits until it has printed its UDP
// address and logged its metrics address.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, error) {
	d := &daemon{cmd: exec.CommandContext(ctx, bin, args...)}
	d.cmd.WaitDelay = 5 * time.Second
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with the benchmark
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	udpC, metricsC := make(chan string, 1), make(chan string, 1)
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.readers.Add(2)
	go func() {
		defer d.readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case udpC <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer d.readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "metrics listening" {
				select {
				case metricsC <- rec.Addr:
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, sc.Text()); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	d.exited = make(chan struct{})
	go func() {
		d.readers.Wait()
		close(d.exited)
	}()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for d.udp == "" || d.metrics == "" {
		select {
		case d.udp = <-udpC:
		case d.metrics = <-metricsC:
		case <-d.exited:
			err := d.cmd.Wait()
			return nil, fmt.Errorf("dnsbld exited during start-up (%v):\n%s", err, d.stderrTail())
		case <-timeout.C:
			d.stop()
			return nil, fmt.Errorf("dnsbld did not report its addresses within 60s")
		}
	}
	return d, nil
}

// firstAnswer queries a until the daemon answers and returns the time
// from exec to that answer. A wrong answer is recorded as a failure.
func (d *daemon) firstAnswer(ctx context.Context, r *runReport, a netaddr.Addr, want uint8) (time.Duration, error) {
	conn, err := net.Dial("udp", d.udp)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	zw := zoneWire(zone)
	buf := make([]byte, 1500)
	for id := uint16(1); ; id++ {
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("dnsbld never answered: %w", ctx.Err())
		case <-d.exited:
			return 0, fmt.Errorf("dnsbld exited before answering:\n%s", d.stderrTail())
		default:
		}
		q := appendQuery(nil, id, a, zw)
		if _, err := conn.Write(q); err != nil {
			return 0, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			return 0, err
		}
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // not serving yet: ask again
			}
			if n < 2 || buf[0] != q[0] || buf[1] != q[1] {
				continue // the late answer to an earlier probe
			}
			at := time.Since(d.start)
			cerr := checkAnswer(q, buf[:n], want)
			r.check(cerr == nil, "start-up probe for %s: %v", a, cerr)
			return at, nil
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM, killed after 10s) and
// waits for it and its output readers.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.exited
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%w (%s)", err, d.panicLine())
	}
	return nil
}

// scraped is one /metrics.json snapshot.
type scraped struct {
	values   map[string]float64 // counters and gauges, summed over labels
	p50, p99 map[string]float64 // histogram quantiles in seconds
}

func scrape(ctx context.Context, addr string) (scraped, error) {
	s := scraped{values: map[string]float64{}, p50: map[string]float64{}, p99: map[string]float64{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics.json", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics []struct {
			Name       string   `json:"name"`
			Value      *float64 `json:"value"`
			P50Seconds *float64 `json:"p50_seconds"`
			P99Seconds *float64 `json:"p99_seconds"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return s, fmt.Errorf("metrics.json: %w", err)
	}
	for _, m := range doc.Metrics {
		if m.Value != nil {
			s.values[m.Name] += *m.Value
		}
		if m.P50Seconds != nil {
			s.p50[m.Name] = *m.P50Seconds
			s.p99[m.Name] = *m.P99Seconds
		}
	}
	return s, nil
}

// procCPU is a process's user plus system CPU time, from /proc/PID/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime the 12th and stime the 13th, in clock ticks.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	const ticksPerSecond = 100 // USER_HZ, fixed by the Linux ABI
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// procHWM is a process's peak resident set (VmHWM) in KiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// tailLatency returns the highest percentile with at least ten samples
// beyond it, and that percentile, of sorted latencies.
func tailLatency(sorted []float64) (float64, float64) {
	if len(sorted) <= 10 {
		return 0, 0
	}
	i := len(sorted) - 11
	return sorted[i], float64(i+1) / float64(len(sorted))
}

// sortedNanos returns round trips as sorted float64 nanoseconds.
func sortedNanos(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}
