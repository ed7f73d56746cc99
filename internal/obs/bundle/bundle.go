// Package bundle writes and reads diagnostics bundles: a single tar.gz
// that carries everything needed to triage an incident offline — recent
// profiles, the flight-recorder dump, a metrics snapshot in both
// Prometheus text and JSON, health checks, per-feed mesh state, the
// triggering watchdog rule's evidence, and build/runtime identity — all
// indexed by a MANIFEST.json with per-file CRCs. A bundle is captured
// in one call (by the watchdog, a /debug/bundle request, the crash hook
// on a panic or fatal exit, or `uncleanctl diagnose`) and summarized in
// one call (`uncleanctl diagnose -summarize FILE`), so the artifact that
// leaves the box is self-describing: no live daemon, dashboards, or
// tribal knowledge required to read it a week later.
//
// Bundles written to disk go through internal/atomicfile's WriteStream
// (temp → fsync → rename, no trailer — gzip carries its own CRC), so a
// bundle file is either absent or complete, never torn.
package bundle

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"time"
)

// Version identifies the bundle layout; readers reject bundles from a
// future layout instead of misreading them.
const Version = 1

// ManifestName is the tar entry every bundle leads with.
const ManifestName = "MANIFEST.json"

// Well-known member names. Profiles live under ProfileDir with their
// deterministic prof.Profile.Name().
const (
	MetricsTextName = "metrics.prom"
	MetricsJSONName = "metrics.json"
	FlightName      = "flight.json"
	HealthName      = "health.json"
	MeshName        = "mesh.json"
	TriggerName     = "trigger.json"
	ProfileDir      = "profiles/"
)

// FileEntry describes one bundle member in the manifest.
type FileEntry struct {
	// Name is the tar member path.
	Name string `json:"name"`
	// Size is the member's byte length.
	Size int64 `json:"size"`
	// CRC32 is the IEEE checksum of the member's bytes; Open verifies
	// it so a bit-rotted bundle fails loudly instead of lying quietly.
	CRC32 uint32 `json:"crc32"`
	// Note is a one-line human description rendered by -summarize.
	Note string `json:"note,omitempty"`
}

// Manifest is the bundle's index and identity — always the first tar
// entry, so `tar -xzOf bundle.tar.gz MANIFEST.json` streams it without
// reading the rest.
type Manifest struct {
	Version   int    `json:"version"`
	CreatedAt string `json:"created_at"` // RFC3339Nano, UTC
	// Reason says why the bundle exists: "watchdog:<rule>", "manual",
	// "shutdown", ...
	Reason string `json:"reason"`
	// Evidence is the triggering rule's one-line evidence ("" for
	// manual captures).
	Evidence string `json:"evidence,omitempty"`

	Hostname  string `json:"hostname,omitempty"`
	PID       int    `json:"pid"`
	GoVersion string `json:"go_version"`
	Platform  string `json:"platform"` // "linux/amd64"
	Revision  string `json:"revision,omitempty"`
	Uptime    string `json:"uptime,omitempty"`

	Files []FileEntry `json:"files"`
}

// File is one member handed to Write: name, bytes, and the note the
// manifest carries for it.
type File struct {
	Name string
	Data []byte
	Note string
}

// Write streams a complete bundle to w: gzip(tar(MANIFEST.json, files
// in the given order)). It fills man.Version, per-file sizes, and CRCs;
// callers provide the identity fields. Member names must be unique and
// non-empty.
func Write(w io.Writer, man Manifest, files []File) error {
	man.Version = Version
	man.Files = make([]FileEntry, 0, len(files))
	seen := make(map[string]bool, len(files)+1)
	seen[ManifestName] = true
	for _, f := range files {
		if f.Name == "" || seen[f.Name] {
			return fmt.Errorf("bundle: duplicate or empty member name %q", f.Name)
		}
		seen[f.Name] = true
		man.Files = append(man.Files, FileEntry{
			Name:  f.Name,
			Size:  int64(len(f.Data)),
			CRC32: crc32.ChecksumIEEE(f.Data),
			Note:  f.Note,
		})
	}
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("bundle: manifest: %w", err)
	}
	manJSON = append(manJSON, '\n')

	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	writeMember := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:     name,
			Typeflag: tar.TypeReg,
			Mode:     0o644,
			Size:     int64(len(data)),
			ModTime:  createdAt(man),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := writeMember(ManifestName, manJSON); err != nil {
		return fmt.Errorf("bundle: %s: %w", ManifestName, err)
	}
	for _, f := range files {
		if err := writeMember(f.Name, f.Data); err != nil {
			return fmt.Errorf("bundle: %s: %w", f.Name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("bundle: tar: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("bundle: gzip: %w", err)
	}
	return nil
}

// createdAt parses the manifest stamp for tar mod times (zero time when
// absent or malformed — tar tolerates it).
func createdAt(man Manifest) time.Time {
	t, err := time.Parse(time.RFC3339Nano, man.CreatedAt)
	if err != nil {
		return time.Time{}
	}
	return t
}

// Bundle is a read-back bundle: the manifest plus every member's bytes,
// CRC-verified.
type Bundle struct {
	Manifest Manifest
	Files    map[string][]byte
}

// File returns a member's bytes (nil when absent).
func (b *Bundle) File(name string) []byte { return b.Files[name] }

// ProfileNames lists the profile members, sorted.
func (b *Bundle) ProfileNames() []string {
	var out []string
	for name := range b.Files {
		if len(name) > len(ProfileDir) && name[:len(ProfileDir)] == ProfileDir {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Read limits. A real capture is a few MB — the flight dump is about
// 1 MB at the default ring size, each retained profile tens to hundreds
// of KB — so these sit far above any capture and far below what a
// forged tar header could otherwise make Read buffer from a small gzip.
const (
	maxManifestBytes = 1 << 20   // MANIFEST.json
	maxMemberBytes   = 256 << 20 // all members together, decompressed
)

// Read parses a bundle stream, verifying the layout (manifest first,
// version known) and every member against the manifest: the archive
// must hold exactly the listed members, once each, with the listed
// sizes and CRCs. A member's size is checked before its bytes are read.
// Corrupt, truncated or forged input returns an error naming the first
// broken member — never a partial Bundle.
func Read(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: not a gzip stream: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)

	hdr, err := tr.Next()
	if err != nil {
		return nil, fmt.Errorf("bundle: empty archive: %w", err)
	}
	if hdr.Name != ManifestName {
		return nil, fmt.Errorf("bundle: first member is %q, want %s", hdr.Name, ManifestName)
	}
	if hdr.Size > maxManifestBytes {
		return nil, fmt.Errorf("bundle: %s is %d bytes, over the %d-byte cap", ManifestName, hdr.Size, maxManifestBytes)
	}
	manJSON, err := io.ReadAll(tr)
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", ManifestName, err)
	}
	var man Manifest
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", ManifestName, err)
	}
	if man.Version > Version {
		return nil, fmt.Errorf("bundle: layout version %d is newer than this reader (%d)", man.Version, Version)
	}
	if man.Version < 1 {
		return nil, fmt.Errorf("bundle: %s has no layout version", ManifestName)
	}
	listed := make(map[string]FileEntry, len(man.Files))
	var total int64
	for _, fe := range man.Files {
		if fe.Name == "" || fe.Name == ManifestName {
			return nil, fmt.Errorf("bundle: manifest lists a member named %q", fe.Name)
		}
		if _, dup := listed[fe.Name]; dup {
			return nil, fmt.Errorf("bundle: manifest lists %s twice", fe.Name)
		}
		if fe.Size < 0 || fe.Size > maxMemberBytes-total {
			return nil, fmt.Errorf("bundle: manifest sizes exceed the %d-byte cap at %s", maxMemberBytes, fe.Name)
		}
		total += fe.Size
		listed[fe.Name] = fe
	}

	b := &Bundle{Manifest: man, Files: make(map[string][]byte, len(man.Files))}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("bundle: truncated archive: %w", err)
		}
		if _, dup := b.Files[hdr.Name]; dup {
			return nil, fmt.Errorf("bundle: archive holds %s twice", hdr.Name)
		}
		// Only a regular file's bytes are its size: a directory or link
		// header may claim a size and yield nothing.
		if hdr.Typeflag != tar.TypeReg {
			return nil, fmt.Errorf("bundle: archive member %q is not a regular file", hdr.Name)
		}
		fe, ok := listed[hdr.Name]
		if !ok {
			return nil, fmt.Errorf("bundle: archive member %q is not in the manifest", hdr.Name)
		}
		if hdr.Size != fe.Size {
			return nil, fmt.Errorf("bundle: %s: size %d, manifest says %d", fe.Name, hdr.Size, fe.Size)
		}
		// The tar reader yields at most hdr.Size bytes and fails short
		// reads; ReadAll grows with the bytes that actually arrive, so a
		// truncated stream cannot make Read allocate the claimed size.
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("bundle: %s: %w", fe.Name, err)
		}
		if got := crc32.ChecksumIEEE(data); got != fe.CRC32 {
			return nil, fmt.Errorf("bundle: %s: crc32 %08x, manifest says %08x", fe.Name, got, fe.CRC32)
		}
		b.Files[fe.Name] = data
	}
	for _, fe := range man.Files {
		if _, ok := b.Files[fe.Name]; !ok {
			return nil, fmt.Errorf("bundle: manifest lists %s but the archive lacks it", fe.Name)
		}
	}
	return b, nil
}

// Open reads and verifies a bundle file.
func Open(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
