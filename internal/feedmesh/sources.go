package feedmesh

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"unclean/internal/atomicfile"
	"unclean/internal/core"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/phishfeed"
	"unclean/internal/report"
	"unclean/internal/retry"
	"unclean/internal/tracker"
)

// sourcePolicy is the per-load retry budget a production source gets:
// short, because the mesh itself retries every Interval and quarantines
// feeds that keep failing.
func sourcePolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      1,
	}
}

// Fold turns a report inventory into a batch: the reports fold into a
// fresh /24 tracker, each dated at the end of its validity window, and
// the batch lists the blocks scoring Threshold under their dominant
// dimension.
type Fold struct {
	HalfLife  time.Duration // the tracker's evidence half-life
	Threshold float64       // the aggregate score a block needs to be listed
}

// Batch folds inv into a batch.
func (f Fold) Batch(inv *report.Inventory) (Batch, error) {
	tr, err := f.tracker(inv)
	if err != nil {
		return Batch{}, err
	}
	return f.batch(tr), nil
}

// classDims maps a report class to the tracker dimension its evidence
// counts toward; special and unclassed reports carry none.
var classDims = map[report.Class]core.Dimension{
	report.ClassBots:     core.DimBot,
	report.ClassScanning: core.DimScan,
	report.ClassSpamming: core.DimSpam,
	report.ClassPhishing: core.DimPhish,
}

// tracker folds a report inventory into a fresh tracker.
func (f Fold) tracker(inv *report.Inventory) (*tracker.Tracker, error) {
	cfg := tracker.DefaultConfig()
	cfg.HalfLife = f.HalfLife
	tr, err := tracker.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range inv.Reports {
		if dim, ok := classDims[r.Class]; ok {
			if err := tr.Observe(dim, r.Addrs, r.ValidTo); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// batch lists the blocks the tracker's scores imply, each under its
// dominant dimension ("unclean" when no dimension scores).
func (f Fold) batch(tr *tracker.Tracker) Batch {
	listed := tr.Blocklist(f.Threshold)
	reasons := make(map[netaddr.Addr]string, listed.Len())
	listed.Each(func(a netaddr.Addr) bool {
		sc := tr.Score(a)
		reason, best := "unclean", 0.0
		for d := core.DimBot; d <= core.DimPhish; d++ {
			if v := sc.ByDim[d]; v > best {
				reason, best = d.String(), v
			}
		}
		reasons[a] = reason
		return true
	})
	return Batch{Addrs: listed, Reasons: reasons}
}

// NewDirSource ingests a directory of report files (the paper's
// per-phenomenon report sets) as one feed, folding it on every load.
// Report files carry validity dates from the study period, not data
// timestamps, so AsOf is left zero ("current as of this load") and
// staleness is tracked by load success alone. With a checkpoint path the
// source saves its tracker there after every successful load and serves
// the checkpoint when its first load fails.
func NewDirSource(name, dir string, fold Fold, checkpoint string) Source {
	var loaded atomic.Bool
	return SourceFunc(name, func(ctx context.Context) (Batch, error) {
		inv, err := report.LoadDirRetry(ctx, sourcePolicy(), dir)
		var tr *tracker.Tracker
		if err == nil {
			tr, err = fold.tracker(inv)
		}
		switch {
		case err == nil && checkpoint != "":
			if serr := tr.SaveFile(checkpoint); serr != nil {
				meshLog.Error("checkpoint save failed", "feed", name, "path", checkpoint, "error", serr)
			}
		case err != nil && checkpoint != "" && !loaded.Load():
			rec, rerr := tracker.LoadFile(checkpoint)
			if rerr != nil {
				return Batch{}, err
			}
			meshLog.Warn("feed ingest failed; recovered from checkpoint",
				"feed", name, "error", err, "blocks", rec.BlockCount(), "path", checkpoint)
			tr = rec
		case err != nil:
			return Batch{}, err
		}
		loaded.Store(true)
		return fold.batch(tr), nil
	})
}

// NewPhishSource ingests a phishfeed incident file as one feed. A file
// truncated mid-line by a non-atomic producer is salvaged: the valid
// prefix loads and the cut point is logged. AsOf stays zero: the repo's
// phish feeds are archival study-period data whose incident dates say
// nothing about how fresh the file itself is, so staleness — like the
// dir source's — is tracked by load success.
func NewPhishSource(name, path string) Source {
	return SourceFunc(name, func(ctx context.Context) (Batch, error) {
		data, err := atomicfile.ReadFile(path)
		if err != nil {
			return Batch{}, err
		}
		f, badLine, err := phishfeed.ReadPrefix(bytes.NewReader(data))
		if err != nil {
			return Batch{}, err
		}
		if badLine > 0 {
			meshLog.Warn("phish feed truncated mid-line; loaded valid prefix",
				"feed", name, "path", path, "line", badLine, "incidents", f.Len())
		}
		if f.Len() == 0 && badLine > 0 {
			return Batch{}, fmt.Errorf("feedmesh: %s: truncated at line %d with no valid prefix", path, badLine)
		}
		b := ipset.NewBuilder(f.Len())
		for _, inc := range f.Incidents() {
			b.Add(inc.Addr)
		}
		return Batch{Addrs: b.Build()}, nil
	})
}
