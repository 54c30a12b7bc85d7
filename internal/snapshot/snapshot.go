// Package snapshot persists discserve sessions across restarts: after a
// session build, the relation, resolved constraints and detection counts
// are serialized into a versioned, checksummed file; on startup the serving
// layer rehydrates sessions from these files, skipping relation parse and
// detection and rebuilding only the in-memory indexes (BENCH_4.json puts
// the cold build a session snapshot avoids at ~156× a warm request).
//
// The file layout is a fixed header followed by two independently
// checksummed JSON sections:
//
//	magic "DISCSNP1" | version u32 | hintLen u32 | hintCRC u32 |
//	payloadLen u64 | payloadCRC u32 | hint JSON | payload JSON
//
// The hint repeats the session's identity (id, name, dedup key, source
// path, requested build params) so that when the payload is corrupt — torn
// write, bit rot — but the hint's checksum still holds, the recovery path
// can rebuild path-loaded sessions from their source instead of losing
// them. All integers are little-endian; checksums are CRC-32C.
//
// Writes are atomic and durable: the bytes go to a temp file in the target
// directory, the file is fsynced, then renamed over the destination and
// the directory fsynced. A crash at any point leaves either the previous
// snapshot or a ".tmp-" leftover that CleanTemp removes at startup — never
// a half-written snapshot under the real name.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/metric"
)

// Version is the current snapshot format version. Readers reject other
// versions with ErrVersion; there is no cross-version migration — an old
// snapshot is quarantined and the session rebuilt from source.
const Version = 1

const (
	magic      = "DISCSNP1"
	headerSize = len(magic) + 4 + 4 + 4 + 8 + 4
	// maxSectionBytes bounds each section length before allocation, so a
	// corrupt header cannot make the reader allocate gigabytes.
	maxSectionBytes = 1 << 32
)

var (
	// ErrCorrupt marks a snapshot whose bytes fail validation: bad magic,
	// impossible lengths, checksum mismatch, or undecodable checksummed
	// JSON. Callers quarantine the file and rebuild.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion marks a snapshot written by an incompatible format
	// version; handled like corruption (quarantine + rebuild).
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrUnsupported marks a session that cannot be serialized — its
	// schema carries a custom textual distance function with no registered
	// name. Such sessions simply stay memory-only.
	ErrUnsupported = errors.New("snapshot: schema not serializable")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Params are the requested build parameters of a session, kept verbatim so
// a rebuild-from-source reproduces the original dedup key (auto-determined
// constraints re-derive identically under the same seed).
type Params struct {
	Eps      float64 `json:"eps"`
	Eta      int     `json:"eta"`
	Kappa    int     `json:"kappa"`
	MaxNodes int     `json:"max_nodes"`
	Seed     int64   `json:"seed"`
	// Index names the requested index kind ("" = auto). Added with
	// mutable sessions; the lenient payload decode keeps snapshots
	// written before the field readable.
	Index string `json:"index,omitempty"`
	// Approx and ApproxConfidence request approximate detection on a
	// rebuild-from-source (the counts in the payload already reflect it).
	// Additive like Index: older snapshots decode with both zero.
	Approx           bool    `json:"approx,omitempty"`
	ApproxConfidence float64 `json:"approx_confidence,omitempty"`
}

// Hint is the identity section, readable independently of the payload.
type Hint struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Key  string `json:"key"`
	// SourcePath is the server-side dataset path for path-loaded sessions
	// ("" for uploads, whose data exists only in the payload).
	SourcePath string `json:"source_path,omitempty"`
	Params     Params `json:"params"`
}

// Snapshot is everything a restart needs to rehydrate a session without
// re-running relation parse or detection.
type Snapshot struct {
	ID         string
	Name       string
	Key        string
	SourcePath string
	Params     Params
	// Eps and Eta are the resolved constraints (post parameter
	// determination), distinct from the requested Params.
	Eps float64
	Eta int
	Rel *data.Relation
	// Counts[i] is the detection's min(|r_ε(t_i)|, Eta), self excluded
	// (the Detection.Counts invariant); the inlier/outlier split is
	// re-derived as Counts[i] >= Eta. Snapshots written before counts were
	// capped hold larger values, which rehydration clamps to Eta.
	Counts    []int
	CreatedAt time.Time
}

// Hint returns the snapshot's identity section, the same record Read
// recovers from a payload-corrupt file.
func (s *Snapshot) Hint() *Hint {
	return &Hint{ID: s.ID, Name: s.Name, Key: s.Key, SourcePath: s.SourcePath, Params: s.Params}
}

type payloadJSON struct {
	Eps       float64    `json:"eps"`
	Eta       int        `json:"eta"`
	Norm      uint8      `json:"norm"`
	Attrs     []attrJSON `json:"attrs"`
	Tuples    [][]any    `json:"tuples"`
	Counts    []int      `json:"counts"`
	CreatedAt time.Time  `json:"created_at"`
}

type attrJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Scale float64 `json:"scale,omitempty"`
	// Metric names the textual distance function; "" means the default
	// (Levenshtein). Functions are code and cannot be serialized, so only
	// the named metrics below round-trip.
	Metric string `json:"metric,omitempty"`
}

// namedMetrics maps serializable names to the repo's string distances.
var namedMetrics = map[string]metric.StringDistance{
	"levenshtein":         metric.Levenshtein,
	"needleman-wunsch":    metric.NeedlemanWunsch,
	"damerau-levenshtein": metric.DamerauLevenshtein,
	"jaro-winkler":        metric.JaroWinkler,
}

// metricName reverses namedMetrics by function identity; ok is false for
// custom functions, which have no serializable name.
func metricName(f metric.StringDistance) (string, bool) {
	if f == nil {
		return "", true
	}
	p := reflect.ValueOf(f).Pointer()
	for name, g := range namedMetrics {
		if reflect.ValueOf(g).Pointer() == p {
			return name, true
		}
	}
	return "", false
}

// encode builds the hint and payload sections.
func encode(s *Snapshot) (hint, payload []byte, err error) {
	sch := s.Rel.Schema
	p := payloadJSON{
		Eps: s.Eps, Eta: s.Eta,
		Norm:      uint8(sch.Norm),
		Counts:    s.Counts,
		CreatedAt: s.CreatedAt,
	}
	for i := range sch.Attrs {
		a := &sch.Attrs[i]
		aj := attrJSON{Name: a.Name, Kind: a.Kind.String(), Scale: a.Scale}
		if a.Kind == data.Text {
			name, ok := metricName(a.Text)
			if !ok {
				return nil, nil, fmt.Errorf("%w: attribute %q has a custom text metric", ErrUnsupported, a.Name)
			}
			aj.Metric = name
		}
		p.Attrs = append(p.Attrs, aj)
	}
	p.Tuples = make([][]any, 0, s.Rel.N())
	for _, t := range s.Rel.Tuples {
		row := make([]any, len(t))
		for i, v := range t {
			if sch.Attrs[i].Kind == data.Text {
				row[i] = v.Str
			} else {
				if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
					return nil, nil, fmt.Errorf("%w: non-finite value in tuple", ErrUnsupported)
				}
				row[i] = v.Num
			}
		}
		p.Tuples = append(p.Tuples, row)
	}
	payload, err = json.Marshal(p)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: encoding payload: %w", err)
	}
	hint, err = json.Marshal(Hint{
		ID: s.ID, Name: s.Name, Key: s.Key,
		SourcePath: s.SourcePath, Params: s.Params,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: encoding hint: %w", err)
	}
	return hint, payload, nil
}

// Write serializes the snapshot to path atomically: temp file in the same
// directory → fsync → rename → directory fsync. On error the destination
// is untouched (a previous snapshot, if any, survives).
func Write(path string, s *Snapshot) error {
	hint, payload, err := encode(s)
	if err != nil {
		return err
	}
	buf := make([]byte, headerSize, headerSize+len(hint)+len(payload))
	copy(buf, magic)
	off := len(magic)
	binary.LittleEndian.PutUint32(buf[off:], Version)
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(hint)))
	binary.LittleEndian.PutUint32(buf[off+8:], crc32.Checksum(hint, crcTable))
	binary.LittleEndian.PutUint64(buf[off+12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+20:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hint...)
	buf = append(buf, payload...)

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(buf); err != nil {
		return fail(fmt.Errorf("snapshot: writing %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("snapshot: syncing %s: %w", tmp, err))
	}
	// The injection site sits in the crash window chaos tests target: the
	// temp file is complete but the rename has not published it.
	if err := fault.Inject(fault.SnapshotWrite); err != nil {
		return fail(fmt.Errorf("snapshot: writing %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so the rename itself is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing %s: %w", dir, err)
	}
	return nil
}

// Read loads and verifies a snapshot. On corruption it returns a non-nil
// *Hint alongside the error whenever the hint section's own checksum still
// holds, so the caller can rebuild the session from its source path even
// though the payload is gone.
func Read(path string) (*Snapshot, *Hint, error) {
	if err := fault.Inject(fault.SnapshotRead); err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	if len(b) < headerSize || string(b[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("%w: %s: bad magic or truncated header", ErrCorrupt, path)
	}
	off := len(magic)
	ver := binary.LittleEndian.Uint32(b[off:])
	if ver != Version {
		return nil, nil, fmt.Errorf("%w: %s: version %d, want %d", ErrVersion, path, ver, Version)
	}
	hintLen := int64(binary.LittleEndian.Uint32(b[off+4:]))
	hintCRC := binary.LittleEndian.Uint32(b[off+8:])
	payloadLen := int64(binary.LittleEndian.Uint64(b[off+12:]))
	payloadCRC := binary.LittleEndian.Uint32(b[off+20:])
	if hintLen > maxSectionBytes || payloadLen > maxSectionBytes ||
		int64(len(b)) != int64(headerSize)+hintLen+payloadLen {
		return nil, nil, fmt.Errorf("%w: %s: section lengths disagree with file size", ErrCorrupt, path)
	}
	hintBytes := b[headerSize : int64(headerSize)+hintLen]
	payloadBytes := b[int64(headerSize)+hintLen:]

	var hint *Hint
	if crc32.Checksum(hintBytes, crcTable) == hintCRC {
		var h Hint
		if json.Unmarshal(hintBytes, &h) == nil {
			hint = &h
		}
	}
	if crc32.Checksum(payloadBytes, crcTable) != payloadCRC {
		return nil, hint, fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, path)
	}
	var p payloadJSON
	if err := json.Unmarshal(payloadBytes, &p); err != nil {
		return nil, hint, fmt.Errorf("%w: %s: payload undecodable: %v", ErrCorrupt, path, err)
	}
	if hint == nil {
		// Payload intact but hint corrupt: without the identity the
		// snapshot cannot be installed under its session id.
		return nil, nil, fmt.Errorf("%w: %s: hint checksum mismatch", ErrCorrupt, path)
	}
	s, err := decode(hint, &p)
	if err != nil {
		return nil, hint, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return s, hint, nil
}

// decode reconstructs the Snapshot from verified sections.
func decode(h *Hint, p *payloadJSON) (*Snapshot, error) {
	sch := &data.Schema{Norm: metric.Norm(p.Norm)}
	for _, a := range p.Attrs {
		attr := data.Attribute{Name: a.Name, Scale: a.Scale}
		if a.Kind == "text" {
			attr.Kind = data.Text
			if a.Metric != "" {
				fn, ok := namedMetrics[a.Metric]
				if !ok {
					return nil, fmt.Errorf("unknown text metric %q", a.Metric)
				}
				attr.Text = fn
			}
		}
		sch.Attrs = append(sch.Attrs, attr)
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	rel := data.NewRelation(sch)
	for i, row := range p.Tuples {
		if len(row) != sch.M() {
			return nil, fmt.Errorf("tuple %d arity %d, want %d", i, len(row), sch.M())
		}
		t := make(data.Tuple, len(row))
		for a, cell := range row {
			if sch.Attrs[a].Kind == data.Text {
				sv, ok := cell.(string)
				if !ok {
					return nil, fmt.Errorf("tuple %d attribute %q expects text", i, sch.Attrs[a].Name)
				}
				t[a] = data.Str(sv)
				continue
			}
			fv, ok := cell.(float64)
			if !ok {
				return nil, fmt.Errorf("tuple %d attribute %q expects a number", i, sch.Attrs[a].Name)
			}
			t[a] = data.Num(fv)
		}
		rel.Append(t)
	}
	if len(p.Counts) != rel.N() {
		return nil, fmt.Errorf("counts length %d disagrees with n=%d", len(p.Counts), rel.N())
	}
	if p.Eps <= 0 || p.Eta < 1 {
		return nil, fmt.Errorf("constraints (ε=%g, η=%d) invalid", p.Eps, p.Eta)
	}
	return &Snapshot{
		ID: h.ID, Name: h.Name, Key: h.Key,
		SourcePath: h.SourcePath, Params: h.Params,
		Eps: p.Eps, Eta: p.Eta,
		Rel: rel, Counts: p.Counts,
		CreatedAt: p.CreatedAt,
	}, nil
}

// Ext is the snapshot filename extension.
const Ext = ".snap"

// List returns the snapshot files in dir, sorted by modification time
// (oldest first) so a capacity-bounded recovery keeps the newest sessions
// when it must evict.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		path string
		mod  time.Time
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(dir, e.Name()), info.ModTime()})
	}
	sort.Slice(cands, func(a, b int) bool {
		if !cands[a].mod.Equal(cands[b].mod) {
			return cands[a].mod.Before(cands[b].mod)
		}
		return cands[a].path < cands[b].path
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out, nil
}

// CleanTemp removes leftover ".tmp-" files from writes torn by a crash,
// returning how many were removed.
func CleanTemp(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			n++
		}
	}
	return n, nil
}
