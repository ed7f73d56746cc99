package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"unclean/internal/obs"
)

// benchProgress prints a periodic one-line heartbeat while a bench
// phase runs: the stage name, how long it has been going, and the
// process's live and peak RSS from the kernel. A paper-scale bench run
// is minutes of silence otherwise, and the live VmHWM is the number the
// bench gate bounds — an operator watching the line can see memory run
// away long before the final report.
type benchProgress struct {
	w     io.Writer
	every time.Duration

	mu         sync.Mutex
	stage      string
	stageStart time.Time

	stop chan struct{}
	done chan struct{}

	// Injectable for tests: the memory probe and the clock.
	readMem func() (obs.ProcMem, bool)
	now     func() time.Time
}

// newBenchProgress starts the heartbeat goroutine, printing to w every
// interval until Stop. An every <= 0 disables the goroutine (Stage and
// Stop stay safe no-ops), so callers don't need a second code path.
func newBenchProgress(w io.Writer, every time.Duration) *benchProgress {
	p := &benchProgress{
		w:       w,
		every:   every,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		readMem: obs.ReadProcMem,
		now:     time.Now,
	}
	if every <= 0 {
		close(p.done)
		return p
	}
	go p.run()
	return p
}

func (p *benchProgress) run() {
	defer close(p.done)
	t := time.NewTicker(p.every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if line := p.line(); line != "" {
				fmt.Fprintln(p.w, line)
			}
		}
	}
}

// Stage marks the start of a named phase; subsequent heartbeats name it
// and time against it.
func (p *benchProgress) Stage(name string) {
	p.mu.Lock()
	p.stage = name
	p.stageStart = p.now()
	p.mu.Unlock()
}

// line renders one heartbeat ("" before the first Stage call) — split
// out so tests can check the rendering without ticker timing.
func (p *benchProgress) line() string {
	p.mu.Lock()
	stage, since := p.stage, p.stageStart
	p.mu.Unlock()
	if stage == "" {
		return ""
	}
	s := fmt.Sprintf("bench: %s running %s", stage,
		p.now().Sub(since).Round(time.Second))
	if pm, ok := p.readMem(); ok {
		s += fmt.Sprintf(", rss %s (peak %s)", fmtBytes(pm.RSS), fmtBytes(pm.Peak))
	}
	return s
}

// Stop ends the heartbeat and waits for the goroutine so no line prints
// into the final bench report.
func (p *benchProgress) Stop() {
	select {
	case <-p.done: // already stopped (or never started)
		return
	default:
	}
	close(p.stop)
	<-p.done
}

// fmtBytes renders a byte count in binary units with one decimal.
func fmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
