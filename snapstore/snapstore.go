// Package snapstore persists machine snapshots to disk, crash-consistently.
//
// A stored snapshot is one file: the machine's normalized spec document
// (the serializable run description of diva/spec) followed by the
// gob-encoded wire form of the simulated state, under a versioned magic
// header and over an FNV-1a checksum. Writes are atomic — temp file,
// fsync, rename, directory fsync — so a crash mid-save leaves either the
// previous version or nothing, never a torn file; a torn or tampered file
// fails the checksum at load time instead of resurrecting corrupt state.
//
// Load rebuilds a machine from the stored spec and grafts the wire state
// onto its configuration, returning a Snapshot that forks bit-identically
// to one captured live — across process restarts, which is the point: a
// service can warm a machine once, persist the handle, and keep serving
// forks from it after a crash or deploy.
//
// The store holds the machine's simulated state only. Variable payloads
// and strategy state cross the gob boundary through concrete types
// registered by their defining packages; a workload that allocates an
// unregistered payload type surfaces as a descriptive Save error, not a
// torn file.
package snapstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"diva"
	"diva/internal/core"
	"diva/spec"
)

// magic is the file format version header. Bump the trailing digit on any
// incompatible layout change; old files then fail with a clear error
// instead of a gob decode panic. (2: packed access-tree node tables, the
// copy directory of the fixed home strategy carried by the variables'
// per-processor bitmaps.)
const magic = "DIVASNP2"

const fileExt = ".snap"

// Store is a directory of snapshot files, keyed by handle. A Store is
// cheap — it holds only the path — and safe for concurrent use: Save is
// atomic per file and Load reads an immutable file.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Handle derives the canonical handle for a run description: an FNV-64a
// hash of the normalized spec JSON with the operational timeout field
// zeroed, so the same machine + warm-up workload always maps to the same
// handle regardless of request deadlines. Sixteen lowercase hex digits,
// safe in filenames and URLs.
func Handle(sp spec.Spec) string {
	n := sp.Normalized()
	n.TimeoutMS = 0
	b, err := json.Marshal(n)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic("snapstore: marshal spec: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func checkHandle(handle string) error {
	if len(handle) != 16 {
		return fmt.Errorf("snapstore: invalid handle %q", handle)
	}
	for _, c := range handle {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("snapstore: invalid handle %q", handle)
		}
	}
	return nil
}

func (s *Store) path(handle string) string {
	return filepath.Join(s.dir, handle+fileExt)
}

// Save persists snap under handle, atomically: the file appears complete
// or not at all, and an existing file under the same handle is replaced
// atomically. sp must be the run description the snapshot was captured
// under; its shard count is pinned to the snapshot's actual shape so a
// later Load — possibly in a different environment — rebuilds the same
// machine.
func (s *Store) Save(handle string, sp spec.Spec, snap *diva.Snapshot) error {
	if err := checkHandle(handle); err != nil {
		return err
	}
	w, err := snap.Wire()
	if err != nil {
		return err
	}
	sp = sp.Normalized()
	if w.Cluster != nil {
		sp.Shards = len(w.Cluster.Kernels)
	} else {
		sp.Shards = 1
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("snapstore: marshal spec: %w", err)
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(w); err != nil {
		return fmt.Errorf("snapstore: encode snapshot: %w", err)
	}

	var buf bytes.Buffer
	buf.WriteString(magic)
	var uv [binary.MaxVarintLen64]byte
	buf.Write(uv[:binary.PutUvarint(uv[:], uint64(len(specJSON)))])
	buf.Write(specJSON)
	buf.Write(uv[:binary.PutUvarint(uv[:], uint64(blob.Len()))])
	buf.Write(blob.Bytes())
	h := fnv.New64a()
	h.Write(buf.Bytes())
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	buf.Write(sum[:])

	return s.writeAtomic(handle, buf.Bytes())
}

func (s *Store) writeAtomic(handle string, data []byte) error {
	f, err := os.CreateTemp(s.dir, "."+handle+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	if _, err := f.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := os.Rename(tmp, s.path(handle)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapstore: %w", err)
	}
	// fsync the directory so the rename itself survives a crash.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Has reports whether a snapshot file exists under handle.
func (s *Store) Has(handle string) bool {
	if checkHandle(handle) != nil {
		return false
	}
	_, err := os.Stat(s.path(handle))
	return err == nil
}

// Load reads the snapshot stored under handle, verifying the checksum,
// rebuilding the machine from the stored spec, and grafting the persisted
// state onto it. The returned snapshot forks bit-identically to the live
// snapshot Save was given, and the returned spec is the stored run
// description (shard count pinned). extra machine options are applied
// after the spec-derived ones; servers pass diva.WithConcurrent(true).
func (s *Store) Load(handle string, extra ...diva.Option) (spec.Spec, *diva.Snapshot, error) {
	var sp spec.Spec
	if err := checkHandle(handle); err != nil {
		return sp, nil, err
	}
	data, err := os.ReadFile(s.path(handle))
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %w", err)
	}
	specJSON, blob, err := parseFile(data)
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: %w", handle, fileExt, err)
	}
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: spec: %w", handle, fileExt, err)
	}
	var w core.SnapshotWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: decode snapshot: %w", handle, fileExt, err)
	}
	m, err := diva.MachineFromSpec(sp, extra...)
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: rebuild machine: %w", handle, fileExt, err)
	}
	snap, err := core.SnapshotFromWire(m, &w)
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: %w", handle, fileExt, err)
	}
	return sp, snap, nil
}

func parseFile(data []byte) (specJSON, blob []byte, err error) {
	if len(data) < len(magic)+8 {
		return nil, nil, fmt.Errorf("truncated file (%d bytes)", len(data))
	}
	if got := string(data[:len(magic)]); got != magic {
		return nil, nil, fmt.Errorf("bad magic %q, want %q", got, magic)
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got := binary.BigEndian.Uint64(sum); got != h.Sum64() {
		return nil, nil, fmt.Errorf("checksum mismatch: file %016x, computed %016x", got, h.Sum64())
	}
	rest := body[len(magic):]
	specJSON, rest, err = lengthPrefixed(rest, "spec")
	if err != nil {
		return nil, nil, err
	}
	blob, rest, err = lengthPrefixed(rest, "snapshot")
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return specJSON, blob, nil
}

func lengthPrefixed(data []byte, what string) (field, rest []byte, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, fmt.Errorf("truncated %s section", what)
	}
	return data[k : k+int(n)], data[k+int(n):], nil
}

// Entry describes one stored snapshot.
type Entry struct {
	Handle string    `json:"handle"`
	Spec   spec.Spec `json:"spec"`
}

// List returns every readable snapshot in the store, sorted by handle.
// Files that fail the checksum or format checks are skipped, not fatal:
// after a crash the directory may hold stray temp files.
func (s *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, fileExt) {
			continue
		}
		handle := strings.TrimSuffix(name, fileExt)
		if checkHandle(handle) != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		specJSON, _, err := parseFile(data)
		if err != nil {
			continue
		}
		var sp spec.Spec
		if err := json.Unmarshal(specJSON, &sp); err != nil {
			continue
		}
		out = append(out, Entry{Handle: handle, Spec: sp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out, nil
}
