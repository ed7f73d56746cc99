// Package atomicfile makes checkpoint persistence crash-safe. A write
// goes temp-file → fsync → rename → fsync(dir), so the destination path
// always holds either the old contents or the complete new contents,
// never a torn mix. Writes append a CRC32 trailer line; reads verify it,
// so a checkpoint corrupted at rest (bit rot, torn sector) is detected
// rather than half-parsed. Files without a trailer (the v1 formats
// written before this package existed) still read cleanly.
//
// The trailer is a '#'-prefixed comment line, which every line-oriented
// format in this repository (tracker checkpoints, report files, phish
// feeds) already skips — so a v2 file remains parseable by a v1 reader
// and remains hand-inspectable.
//
// WriteCheckpointHook/LoadCheckpoint add one generation of history: the
// previous checkpoint is kept as <path>.prev, and recovery falls back to
// the newest file that validates. Every stage of a write runs through an
// injectable hook, so tests can crash the sequence at each step and
// assert nothing acknowledged is ever lost.
package atomicfile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"unclean/internal/obs"
)

// Checkpoint-durability telemetry (obs default registry). CRC failures
// and .prev recoveries are the two signals that distinguish "disk is
// rotting under us" from "all writes land cleanly".
var (
	mWrites = obs.Default().Counter("unclean_checkpoint_writes_total",
		"Atomic checkpoint writes completed (fsynced and renamed).")
	mWriteErrors = obs.Default().Counter("unclean_checkpoint_write_errors_total",
		"Atomic checkpoint writes that failed before completion.")
	mWriteSeconds = obs.Default().Histogram("unclean_checkpoint_write_seconds",
		"Duration of atomic checkpoint writes (temp file to directory fsync).")
	mCRCFailures = obs.Default().Counter("unclean_checkpoint_crc_failures_total",
		"Checkpoint reads rejected by the CRC32 trailer check.")
	mPrevRecoveries = obs.Default().Counter("unclean_checkpoint_prev_recoveries_total",
		"Checkpoint loads that fell back to the .prev generation.")
)

// ErrCorrupt is wrapped by read errors caused by a failed CRC check or a
// malformed trailer.
var ErrCorrupt = errors.New("atomicfile: checksum mismatch")

// trailerPrefix starts the CRC trailer line. The trailer covers every
// byte before its own first character.
const trailerPrefix = "#crc32:"

// PrevSuffix is appended to a checkpoint path to name the kept previous
// generation.
const PrevSuffix = ".prev"

// Stages reported to write hooks, in order of occurrence.
const (
	StageTemp    = "temp"    // temp file created
	StageData    = "data"    // payload written
	StageTrailer = "trailer" // CRC trailer written
	StageSync    = "sync"    // temp file fsynced
	StageRename  = "rename"  // temp renamed over destination
	StageRotate  = "rotate"  // old checkpoint rotated to .prev (WriteCheckpointHook only)
	StageDirSync = "dirsync" // directory fsynced
)

// A Hook observes (and may abort) each stage of a write. Returning an
// error stops the sequence at exactly that point, leaving whatever state
// a real crash there would leave — the fault-injection seam used by the
// chaos tests. The temp file of an aborted write is removed; a real
// crash would leave it, and Load ignores such orphans.
type Hook func(stage string) error

// WriteFile atomically replaces path with data plus a CRC32 trailer.
func WriteFile(path string, data []byte) error {
	return WriteFileHook(path, data, nil)
}

// WriteFileHook is WriteFile with a fault-injection hook (nil is allowed
// and means no injection).
func WriteFileHook(path string, data []byte, hook Hook) error {
	start := time.Now()
	err := writeFileHook(path, data, hook)
	if err != nil {
		mWriteErrors.Inc()
		return err
	}
	mWrites.Inc()
	mWriteSeconds.Observe(time.Since(start))
	return nil
}

func writeFileHook(path string, data []byte, hook Hook) error {
	step := func(stage string) error {
		if hook == nil {
			return nil
		}
		return hook(stage)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure, simulate the crash cleanup an operator gets from a
	// tmp-reaper: close and remove the orphan.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := step(StageTemp); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := step(StageData); err != nil {
		return fail(err)
	}
	if _, err := tmp.WriteString(Trailer(data)); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := step(StageTrailer); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := step(StageSync); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := step(StageRename); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return step(StageDirSync)
}

// WriteStream atomically replaces path with the bytes produced by
// write, for binary formats that carry their own integrity footer — no
// text CRC trailer is appended, since a binary payload could collide
// with the trailer syntax. The durability sequence matches WriteFile:
// temp file → fsync → rename → fsync(dir).
func WriteStream(path string, write func(w io.Writer) error) error {
	start := time.Now()
	err := writeStream(path, write)
	if err != nil {
		mWriteErrors.Inc()
		return err
	}
	mWrites.Inc()
	mWriteSeconds.Observe(time.Since(start))
	return nil
}

func writeStream(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("atomicfile: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	return syncDir(dir)
}

// Trailer renders the CRC32 trailer line for payload.
func Trailer(payload []byte) string {
	return fmt.Sprintf("%s%08x %d\n", trailerPrefix, crc32.ChecksumIEEE(payload), len(payload))
}

// ReadFile reads path and, when a CRC trailer is present, verifies it
// and returns only the payload. Files without a trailer are returned
// as-is (v1 compatibility). A present-but-wrong trailer yields an error
// wrapping ErrCorrupt. Only a regular file is read: the open does not
// block, so a FIFO without a writer cannot hold up the caller, and
// anything but a regular file is refused with an error naming the path.
func ReadFile(path string) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("atomicfile: %s is not a regular file (mode %s)", path, fi.Mode())
	}
	raw := bytes.NewBuffer(make([]byte, 0, fi.Size()+512))
	if _, err := raw.ReadFrom(f); err != nil {
		return nil, err
	}
	return Verify(raw.Bytes(), path)
}

// Verify checks and strips the CRC trailer of raw, read from name (used
// only in error text). Data without a trailer passes through unchanged.
func Verify(raw []byte, name string) ([]byte, error) {
	// The trailer is the final line; find the start of it.
	end := len(raw)
	if end > 0 && raw[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && raw[start-1] != '\n' {
		start--
	}
	last := string(raw[start:end])
	if !strings.HasPrefix(last, trailerPrefix) {
		return raw, nil // v1: no trailer
	}
	fields := strings.Fields(strings.TrimPrefix(last, trailerPrefix))
	if len(fields) != 2 {
		mCRCFailures.Inc()
		return nil, fmt.Errorf("%w: %s: malformed trailer %q", ErrCorrupt, name, last)
	}
	wantSum, err := strconv.ParseUint(fields[0], 16, 32)
	if err != nil {
		mCRCFailures.Inc()
		return nil, fmt.Errorf("%w: %s: malformed trailer %q", ErrCorrupt, name, last)
	}
	wantLen, err := strconv.Atoi(fields[1])
	if err != nil || wantLen != start {
		mCRCFailures.Inc()
		return nil, fmt.Errorf("%w: %s: trailer claims %s payload bytes, file has %d",
			ErrCorrupt, name, fields[1], start)
	}
	payload := raw[:start]
	if got := crc32.ChecksumIEEE(payload); got != uint32(wantSum) {
		mCRCFailures.Inc()
		return nil, fmt.Errorf("%w: %s: crc %08x, trailer says %08x", ErrCorrupt, name, got, wantSum)
	}
	return payload, nil
}

// WriteCheckpointHook atomically writes data to path, preserving the
// previous checkpoint as path+PrevSuffix, and runs hook (when not nil) at
// every stage. After it returns nil the data is durable; after a crash at
// any interior point, LoadCheckpoint returns either this data or the
// previous acknowledged data — never a torn or empty state (provided one
// checkpoint existed before).
func WriteCheckpointHook(path string, data []byte, hook Hook) error {
	step := func(stage string) error {
		if hook == nil {
			return nil
		}
		return hook(stage)
	}
	// Rotate the current checkpoint to .prev first; rename is atomic, so
	// a crash in between leaves .prev holding the old acknowledged state.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			return fmt.Errorf("atomicfile: rotate: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	if err := step(StageRotate); err != nil {
		return err
	}
	return WriteFileHook(path, data, hook)
}

// LoadCheckpoint returns the payload of the newest valid checkpoint:
// path itself if it reads and verifies, else path+PrevSuffix. The error,
// when both fail, is the primary path's.
func LoadCheckpoint(path string) ([]byte, error) {
	data, err := ReadFile(path)
	if err == nil {
		return data, nil
	}
	if prev, perr := ReadFile(path + PrevSuffix); perr == nil {
		mPrevRecoveries.Inc()
		obs.Logger("atomicfile").Warn("recovered previous checkpoint generation",
			"path", path, "error", err)
		return prev, nil
	}
	return nil, err
}

// syncDir fsyncs a directory so a just-completed rename is durable.
// Platforms whose directories refuse fsync (some network filesystems)
// degrade silently — the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("atomicfile: sync %s: %w", dir, err)
	}
	return nil
}
