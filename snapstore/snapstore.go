// Package snapstore persists machine snapshots to disk, crash-consistently.
//
// A stored snapshot is one file in the DIVASNP3 layout, laid out so that
// restoring it is a checksum pass, one small gob decode and two linear
// copies. All integers are little-endian:
//
//	offset  size  content
//	0       8     magic "DIVASNP3"
//	8       8     S: length of the spec section
//	16      8     T: length of the table section
//	24      8     L: length of the bitmap section
//	32      8     G: length of the state section
//	40      S     spec: the machine's normalized spec document (the
//	              serializable run description of diva/spec), JSON
//	40+S    T     tables: the strategy's bulk protocol tables — every
//	              access-tree node table in variable order, 8 bytes a node
//	              (edges uint32, toward int8, member 0/1, acks 0, arrow
//	              int8); empty for the other strategies. This is the dense
//	              form whatever a table holds in memory: a sparse table
//	              writes every node it does not hold as the state at rest
//	              (both pointers up), and Load keeps only the nodes that
//	              differ from it, refusing a word that does not fit its
//	              tree node (a pointer past the root or to a missing
//	              child, an edge to a missing neighbor)
//	..      L     bitmaps: the local-copy bitmap of every live variable in
//	              variable order, ceil(P/64) uint64 words each
//	..      G     state: one gob stream holding the irregular remainder —
//	              kernel, network, barrier, cache and strategy state and the
//	              per-variable scalars as one value, then the variable
//	              values grouped by concrete type, one typed slice per type
//	40+S+T+L+G 8  checksum of every byte before it: CRC-32C in the high
//	              half, CRC-32 (IEEE) in the low half — both computed by
//	              hardware instructions, and two independent polynomials
//	              instead of one 32-bit check
//
// The four lengths must add up to the file size exactly, which is checked
// before anything is allocated; the checksum is verified before anything
// is decoded. Writes are atomic — temp file, fsync, rename, directory
// fsync — so a crash mid-save leaves either the previous version or
// nothing, never a torn file; a torn or tampered file fails the checksum at
// load time instead of resurrecting corrupt state. Files of an older layout
// (DIVASNP1, DIVASNP2) are refused by their magic.
//
// Load rebuilds a machine from the stored spec and decodes the sections
// straight into the state a fork restores from — the same representation a
// live capture has — after validating every shape against the rebuilt
// machine, returning a Snapshot that forks bit-identically to one captured
// live — across process restarts, which is the point: a service can warm a
// machine once, persist the handle, and keep serving forks from it after a
// crash or deploy. Saving is deterministic: the same snapshot always
// produces the same bytes, and Save → Load → Save reproduces the file.
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
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"diva"
	"diva/internal/core"
	"diva/spec"
)

// magic is the file format version header. Bump the trailing digit on any
// incompatible layout change; old files then fail with a clear error
// instead of a decode failure.
const magic = "DIVASNP3"

// headerLen is the magic plus the four section lengths; sumLen the
// trailing checksum.
const (
	headerLen = len(magic) + 4*8
	sumLen    = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

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
// under: a later Load rebuilds the machine from it.
func (s *Store) Save(handle string, sp spec.Spec, snap *diva.Snapshot) error {
	if err := checkHandle(handle); err != nil {
		return err
	}
	w, err := snap.Wire()
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(sp.Normalized())
	if err != nil {
		return fmt.Errorf("snapstore: marshal spec: %w", err)
	}
	var state bytes.Buffer
	if err := w.WriteState(&state); err != nil {
		return err
	}
	sections := [4][]byte{specJSON, w.Tables, w.Locals, state.Bytes()}
	size := headerLen + sumLen
	for _, sec := range sections {
		size += len(sec)
	}
	file := append(make([]byte, 0, size), magic...)
	for _, sec := range sections {
		file = binary.LittleEndian.AppendUint64(file, uint64(len(sec)))
	}
	for _, sec := range sections {
		file = append(file, sec...)
	}
	return s.writeAtomic(handle, binary.LittleEndian.AppendUint64(file, checksum(file)))
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
// description. extra machine options are applied
// after the spec-derived ones.
func (s *Store) Load(handle string, extra ...diva.Option) (spec.Spec, *diva.Snapshot, error) {
	var sp spec.Spec
	if err := checkHandle(handle); err != nil {
		return sp, nil, err
	}
	data, err := readFile(s.path(handle))
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %w", err)
	}
	defer fileBufs.Put(data)
	sections, err := parseFile(*data)
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: %w", handle, fileExt, err)
	}
	if err := json.Unmarshal(sections[0], &sp); err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: spec: %w", handle, fileExt, err)
	}
	m, err := diva.MachineFromSpec(sp, extra...)
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: rebuild machine: %w", handle, fileExt, err)
	}
	snap, err := core.SnapshotFromWire(m, sections[1], sections[2], sections[3])
	if err != nil {
		return sp, nil, fmt.Errorf("snapstore: %s%s: %w", handle, fileExt, err)
	}
	return sp, snap, nil
}

// fileBufs recycles Load's file buffers. Every section is decoded by copy,
// so once Load returns nothing refers to the file's bytes — and allocating
// and zeroing a fresh buffer per restore would cost more than the checksum
// pass over it.
var fileBufs sync.Pool

func readFile(path string) (*[]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf, _ := fileBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if n := int(fi.Size()); cap(*buf) < n {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(f, *buf); err != nil {
		fileBufs.Put(buf)
		return nil, err
	}
	return buf, nil
}

// parseFile checks a file's framing — magic, section lengths against the
// file size, checksum — and returns its four sections (spec, tables,
// bitmaps, state), aliasing data.
func parseFile(data []byte) (sections [4][]byte, err error) {
	if len(data) < headerLen+sumLen {
		return sections, fmt.Errorf("truncated file (%d bytes)", len(data))
	}
	if got := string(data[:len(magic)]); got != magic {
		return sections, fmt.Errorf("bad magic %q, want %q", got, magic)
	}
	body := data[:len(data)-sumLen]
	rest := uint64(len(body) - headerLen)
	var lens [4]uint64
	for i := range lens {
		lens[i] = binary.LittleEndian.Uint64(data[len(magic)+8*i:])
		if lens[i] > rest {
			return sections, fmt.Errorf("section %d claims %d bytes, %d are left of a %d-byte file", i, lens[i], rest, len(data))
		}
		rest -= lens[i]
	}
	if rest != 0 {
		return sections, fmt.Errorf("%d trailing bytes", rest)
	}
	if got, want := binary.LittleEndian.Uint64(data[len(body):]), checksum(body); got != want {
		return sections, fmt.Errorf("checksum mismatch: file %016x, computed %016x", got, want)
	}
	off := uint64(headerLen)
	for i, n := range lens {
		sections[i] = body[off : off+n : off+n]
		off += n
	}
	return sections, nil
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
		sections, err := parseFile(data)
		if err != nil {
			continue
		}
		var sp spec.Spec
		if err := json.Unmarshal(sections[0], &sp); err != nil {
			continue
		}
		out = append(out, Entry{Handle: handle, Spec: sp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out, nil
}
