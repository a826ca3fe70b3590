// Package snapstore persists machine snapshots to disk, crash-consistently.
//
// A stored snapshot is one file in the DIVASNP9 layout, laid out so that
// restoring it is a checksum pass, one linear decode of the state section
// straight from the file buffer, and two linear copies. All fixed-width
// integers are little-endian:
//
//	offset  size  content
//	0       8     magic "DIVASNP9"
//	8       8     S: length of the spec section
//	16      8     T: length of the table section
//	24      8     L: length of the bitmap section
//	32      8     G: length of the state section
//	40      S     spec: the machine's normalized spec document (the
//	              serializable run description of diva/spec), JSON
//	40+S    T     tables: every live variable's access-tree node table in
//	              variable order as its nodes not at rest (at rest: both
//	              pointers up, nothing else), ids strictly ascending, 10
//	              bytes an entry: the id (uint16), then the node (edges
//	              uint32, toward int8, member 0/1, acks 0, arrow int8);
//	              empty for the other strategies. The state section gives
//	              each table's entry count. Load refuses ids out of order
//	              or past the tree, a table without the root, and a node
//	              in a state its tree node cannot hold (a pointer past the
//	              root or to a missing child, an edge to a missing
//	              neighbor)
//	..      L     bitmaps: the local-copy bitmap of every live variable in
//	              variable order, ceil(P/64) uint64 words each
//	..      G     state: the irregular remainder in the binary encoding of
//	              diva/internal/wire (varints; floats, seeds and stream
//	              positions as words), in this order: kernel clock,
//	              counters and fingerprint; the network — link and node
//	              clocks and loads, the messages and bytes sent of each
//	              of the 32 kinds, the queued inbox messages node by node
//	              in arrival order with their payloads, the fault cursor
//	              and counters, the reactive transport's node streams and
//	              its channel table in (src, dst) order; the machine's
//	              random stream; the per-variable scalars (a freed variable
//	              is one zero byte); the barrier's release counters; each
//	              node's cache keys in LRU order and its replacement count
//	              (no cache without a cache bound); the variable values,
//	              one kind byte a variable, then the values of each kind,
//	              ascending by kind; then, to the section's end, the strategy's own
//	              state (an access tree's table entry count, embedding and
//	              lock token leaf a variable, then its remap blocks)
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
// load time instead of resurrecting corrupt state. The state section is
// read by one bounds-checked reader: every length is checked against the
// bytes left before anything is allocated for it, so a hostile file cannot
// force a large allocation, and every shape is then validated against the
// rebuilt machine.
//
// Files of an older layout are refused by their magic, with no second
// reader: DIVASNP8 keeps an epoch counter a processor for the barrier,
// DIVASNP7 256 send counters of each sort and a cache record
// a node without a cache bound, DIVASNP6 every node of every access-tree
// table, and DIVASNP1 to DIVASNP5 the state section as an encoding/gob
// stream, which would load older layouts with state silently dropped.
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
// The store holds the machine's simulated state only. Variable values and
// queued message payloads cross through the value codecs their defining
// packages register by kind byte (diva/internal/wire); a workload that
// stores a value of a type without a codec surfaces as a descriptive Save
// error, not a torn file.
package snapstore

import (
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

	"diva"
	"diva/internal/core"
	"diva/internal/sim"
	"diva/spec"
)

// magic is the file format version header. Bump the trailing digit on any
// incompatible layout change; old files then fail with a clear error
// instead of a decode failure.
const magic = "DIVASNP9"

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
	buf := getBuf()
	// The state section is encoded in place, after the other three: its
	// length is written once it is known.
	sections := [3][]byte{specJSON, w.Tables, w.Locals}
	file := append(buf[:0], magic...)
	for _, sec := range sections {
		file = binary.LittleEndian.AppendUint64(file, uint64(len(sec)))
	}
	file = append(file, make([]byte, 8)...)
	for _, sec := range sections {
		file = append(file, sec...)
	}
	stateAt := len(file)
	if file, err = w.AppendState(file); err == nil {
		binary.LittleEndian.PutUint64(file[len(magic)+8*len(sections):], uint64(len(file)-stateAt))
		file = binary.LittleEndian.AppendUint64(file, checksum(file))
		err = s.writeAtomic(handle, file)
	}
	putBuf(file)
	return err
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
	defer putBuf(data)
	sections, err := parseFile(data)
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

// fileBufs holds the file buffers of finished Saves and Loads for the next
// ones. Every section is decoded by copy, so once Load returns nothing
// refers to the file's bytes — and allocating and zeroing a fresh buffer
// per restore would cost more than the checksum pass over it. A shelf, not
// a sync.Pool: a collection empties a pool, and the Load after it would
// allocate the whole file again. At most 4 buffers of at most 4 MiB wait;
// a larger file's buffer is dropped after use. A reused buffer counts as an
// adoption of the shelf; the shelf's hits and misses count runs' storage,
// not files.
var fileBufs = sim.NewShelf[fileBuf](4, 4<<20)

// fileBuf is a file buffer waiting on fileBufs (a sim.Spare).
type fileBuf struct{ b []byte }

func (f *fileBuf) Bytes() int { return cap(f.b) }

func (f *fileBuf) Trim(max int) {
	if cap(f.b) > max {
		f.b = nil
	}
}

// Scrub does nothing: file bytes refer to no machine.
func (f *fileBuf) Scrub() {}

// getBuf returns an empty file buffer.
func getBuf() []byte {
	f, _ := fileBufs.Take(0)
	return f.b[:0]
}

// putBuf shelves a buffer getBuf or readFile returned, which nothing may
// use any more.
func putBuf(b []byte) { fileBufs.Give(0, fileBuf{b}, 0, 0) }

// readFile reads the file at path into a buffer from getBuf.
func readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := getBuf()
	if n := int(fi.Size()); cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		putBuf(buf)
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
