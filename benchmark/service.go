package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diva"
	"diva/serve"
	"diva/snapstore"
	"diva/spec"
)

// The server under test and its load: a closed loop of serveClients
// callers, each on its own keep-alive connection, each sending its next
// request only after the previous reply — the way a sweep script drives
// `divasim serve`.
const (
	serveClients       = 2
	serveWorkers       = 2
	serveQueue         = 4
	serveSnapshotCache = 8
)

// Op kinds of the serve workloads.
const (
	kindRun      = "run"          // plain /v1/run, machine resident in the snapshot cache
	kindCreate   = "create"       // POST /v1/snapshots: build, warm, snapshot, persist
	kindLoadRun  = "load-run"     // /v1/run?snapshot=h, h evicted: restore from disk, fork
	kindResident = "resident-run" // /v1/run?snapshot=h, h resident: fork of warmed state
	kindMissRun  = "miss-run"     // plain /v1/run, machine not cached: build + snapshot on the request path
)

// request is one prepared HTTP op.
type request struct {
	kind   string
	url    string // path and query
	body   []byte // the spec document
	handle string // snapshot handle, for the snapshot kinds
	key    string // reference key of the expected outcome
}

// roundSizes is the fixed op count of one round, per kind.
type roundSizes struct {
	run, create, load, resident, miss int
}

// service is an HTTP workload (serve-fork, warm-state): an in-process
// diva/serve server behind httptest, driven through real sockets.
type service struct {
	name  string
	seed  uint64
	sizes roundSizes
	ref   map[string]outcome

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string // snapshot directory, warm-state only
	shadow shadow

	tracer   atomic.Pointer[tracer] // read by the handler middleware
	requests int                    // requests the server answered 200 since it started
	created  int                    // warm-state: snapshots stored so far
}

// poolSeed is the machine seed of the i-th snapshot a run creates: the
// pool, entered at a point drawn from the benchmark seed.
func (s *service) poolSeed(i int) uint64 {
	offset := int(s.seed % warmPool)
	return warmSeed0 + uint64((offset+i)%warmPool)
}

// Trace headers: the client names its op span so the handler span can
// record what caused it, and the handler names its span so the shadow
// spans can hang below it.
const (
	hdrOp      = "X-Bench-Op"
	hdrSpan    = "X-Bench-Span"
	hdrHandler = "X-Bench-Handler"
)

// traced wraps the server's handler with the serve.handler span. Untraced
// runs pay one atomic load.
func (s *service) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tracer.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))
		id := tr.begin(spanHandler, parent, op)
		w.Header().Set(hdrHandler, strconv.Itoa(id))
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

func (s *service) setup() error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	s.ref = ref
	opts := serve.Options{Workers: serveWorkers, Queue: serveQueue, SnapshotCache: serveSnapshotCache}
	if s.name == wlWarm {
		// Snapshot files stay inside the checkout, where the build output is.
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		if s.dir, err = os.MkdirTemp(buildDir, "snapshots-"); err != nil {
			return err
		}
		opts.SnapshotDir = s.dir
	}
	if s.srv, err = serve.New(opts); err != nil {
		return err
	}
	s.ts = httptest.NewServer(s.traced(s.srv.Handler()))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	s.requests, s.created = 0, 0
	s.shadow = shadow{}

	// Warm-up pass: every machine of the mix is built and cached, the
	// connections are open, and warm-state's first working set is on disk.
	var warm []request
	switch s.name {
	case wlServe:
		for _, c := range serveCells {
			warm = append(warm, s.runRequest(kindRun, c.cell))
		}
		warm = append(warm, s.drawMix(rand.New(rand.NewPCG(s.seed, ^uint64(0))), 200)...)
	case wlWarm:
		warm = s.createRequests(warmWorkingSet)
		s.created = warmWorkingSet
		warm = append(warm, s.snapshotRuns(kindLoadRun, warmWorkingSet, warmWorkingSet)...)
		warm = append(warm, s.missRuns(len(warmMissCells))...)
	}
	samples, _ := s.block(warm, nil, 0)
	for i, sm := range samples {
		if !sm.ok {
			return fmt.Errorf("warm-up request %d (%s %s) failed", i, warm[i].kind, warm[i].key)
		}
	}
	return nil
}

func (s *service) teardown() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain(time.Second)
	if s.dir != "" {
		os.RemoveAll(s.dir)
		os.RemoveAll(s.shadowDir())
	}
}

func (s *service) maxRounds() int {
	if s.name == wlWarm {
		return (warmPool - warmWorkingSet) / s.sizes.create
	}
	return 1 << 30
}

// check is the service self-check: the server must have completed exactly
// the requests this benchmark saw succeed, and shed, timed out or panicked
// on none.
func (s *service) check() (health, error) {
	var h health
	resp, err := s.client.Get(s.ts.URL + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	if h.Runs != s.requests || h.Rejected != 0 || h.Timeouts != 0 || h.Panics != 0 {
		return h, fmt.Errorf("healthz: runs %d (benchmark saw %d succeed), rejected %d, timeouts %d, panics %d",
			h.Runs, s.requests, h.Rejected, h.Timeouts, h.Panics)
	}
	return h, nil
}

// marshalSpec is the request body of sp with the op deadline attached.
func marshalSpec(sp spec.Spec) []byte {
	sp.TimeoutMS = int(opDeadline / time.Millisecond)
	body, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a Spec is plain data
	}
	return body
}

func (s *service) runRequest(kind string, c cell) request {
	return request{kind: kind, url: "/v1/run", body: marshalSpec(c.spec), key: s.name + "/" + c.name}
}

// drawMix returns n requests of the serve-fork mix: the exact cells at
// their share, the others drawn by weight, in an order drawn from rng.
func (s *service) drawMix(rng *rand.Rand, n int) []request {
	reqs := make([]request, 0, n)
	drawn := 0
	for _, c := range serveCells {
		if !c.exact {
			drawn += c.weight
			continue
		}
		for i := 0; i < n*c.weight/100; i++ {
			reqs = append(reqs, s.runRequest(kindRun, c.cell))
		}
	}
	for len(reqs) < n {
		w := rng.IntN(drawn)
		for _, c := range serveCells {
			if c.exact {
				continue
			}
			if w -= c.weight; w < 0 {
				reqs = append(reqs, s.runRequest(kindRun, c.cell))
				break
			}
		}
	}
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// createRequests warms the next n pool seeds.
func (s *service) createRequests(n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		sp := warmSpec(s.poolSeed(s.created + i))
		key, _ := warmKeys(sp.Seed)
		reqs[i] = request{kind: kindCreate, url: "/v1/snapshots", body: marshalSpec(sp), handle: snapstore.Handle(sp), key: key}
	}
	return reqs
}

// snapshotRuns returns n query runs going round-robin over the newest
// `over` stored snapshots.
func (s *service) snapshotRuns(kind string, over, n int) []request {
	query := marshalSpec(spec.Spec{Workload: warmQuery})
	reqs := make([]request, n)
	for i := range reqs {
		seed := s.poolSeed(s.created - 1 - i%over)
		_, key := warmKeys(seed)
		handle := snapstore.Handle(warmSpec(seed))
		reqs[i] = request{kind: kind, url: "/v1/run?snapshot=" + handle, body: query, handle: handle, key: key}
	}
	return reqs
}

func (s *service) missRuns(n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.runRequest(kindMissRun, warmMissCells[i%len(warmMissCells)])
	}
	return reqs
}

// round runs the ops of round r. serve-fork is one block drawn from the
// mix. warm-state creates new snapshots, then runs its three query blocks
// in an order drawn from the seed — blocks, not an interleave, so the
// cache state of each block is what its name says.
func (s *service) round(r int, tr *tracer) ([]sample, time.Duration) {
	rng := rand.New(rand.NewPCG(s.seed, uint64(r)))
	var blocks [][]request
	if s.name == wlServe {
		blocks = [][]request{s.drawMix(rng, s.sizes.run)}
	} else {
		blocks = append(blocks, s.createRequests(s.sizes.create))
		s.created += s.sizes.create
		queries := [][]request{
			s.snapshotRuns(kindLoadRun, warmWorkingSet, s.sizes.load),
			s.snapshotRuns(kindResident, warmResident, s.sizes.resident),
			s.missRuns(s.sizes.miss),
		}
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		blocks = append(blocks, queries...)
	}
	var samples []sample
	var wall time.Duration
	for _, b := range blocks {
		sm, d := s.block(b, tr, r<<20|len(samples))
		samples = append(samples, sm...)
		wall += d
	}
	return samples, wall
}

// block sends reqs through the closed loop and returns one sample per
// request and the time the block took. With a tracer it then replays the
// same requests in process, outside the returned time, for the spans the
// handler cannot be seen into from here.
func (s *service) block(reqs []request, tr *tracer, firstOp int) ([]sample, time.Duration) {
	s.tracer.Store(tr)
	samples := make([]sample, len(reqs))
	handlers := make([]int, len(reqs))
	start := time.Now()
	eachIndex(serveClients, len(reqs), func(i int) {
		samples[i], handlers[i] = s.do(&reqs[i], tr, firstOp+i)
	})
	wall := time.Since(start)
	s.tracer.Store(nil)
	for i := range samples {
		if samples[i].ok {
			s.requests++
		}
	}
	if tr != nil {
		// As many replays at once as the server has workers: an unpinned
		// kernel hands its baton across cores when one is idle, so a lone
		// replay would run slower than the handler it mirrors.
		eachIndex(serveWorkers, len(reqs), func(i int) {
			if samples[i].ok {
				samples[i].ok = s.replay(&reqs[i], tr, handlers[i], firstOp+i)
			}
		})
	}
	return samples, wall
}

// eachIndex calls f(0) ... f(n-1) from `workers` goroutines, each taking
// the next index when it is done with the last, and returns when all have.
func eachIndex(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// do sends one request and verifies the reply against the reference. It
// returns the handler's span id when traced.
func (s *service) do(req *request, tr *tracer, op int) (sample, int) {
	start := time.Now()
	root := tr.begin(spanOp, -1, op)
	hr, err := http.NewRequest(http.MethodPost, s.ts.URL+req.url, bytes.NewReader(req.body))
	if err != nil {
		panic(err) // the URL is ours
	}
	hr.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hr.Header.Set(hdrSpan, strconv.Itoa(root))
		hr.Header.Set(hdrOp, strconv.Itoa(op))
	}
	var data []byte
	status, handler := 0, -1
	resp, err := s.client.Do(hr)
	if err == nil {
		status = resp.StatusCode
		handler, _ = strconv.Atoi(resp.Header.Get(hdrHandler))
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(root)
	sm := sample{dur: time.Since(start)}
	want := s.ref[req.key]
	if err != nil || status != http.StatusOK {
		reportFailure(req.key, fmt.Errorf("status %d: %v: %s", status, err, data), outcome{}, want)
		return sm, handler
	}
	sm.events, sm.simUS, sm.cong = want.Events-want.CaptureEvents, want.ElapsedUS, want.MaxBytes
	if req.kind == kindCreate {
		// The reply names the handle; the stored state is verified by every
		// query that forks from it.
		var sr serve.SnapshotResponse
		err = json.Unmarshal(data, &sr)
		sm.ok = err == nil && sr.Handle == req.handle
	} else {
		var rr serve.RunResponse
		err = json.Unmarshal(data, &rr)
		got := outcome{
			Fingerprint: rr.Fingerprint, Events: rr.Events, ElapsedUS: rr.ElapsedUS,
			MaxBytes: rr.Congestion.MaxBytes, TotalBytes: rr.Congestion.TotalBytes, CaptureEvents: want.CaptureEvents,
		}
		sm.ok = err == nil && got == want
		if !sm.ok {
			reportFailure(req.key, err, got, want)
		}
	}
	return sm, handler
}

func (s *service) shadowDir() string { return s.dir + "-shadow" }

// shadow is the benchmark's own copy of what the server keeps between
// requests, so a replay does the work the handler did and no more.
type shadow struct {
	mu      sync.Mutex
	entries map[string]shadowEntry // by reference key (run) or handle (resident-run)
}

type shadowEntry struct {
	snap    *diva.Snapshot
	machine spec.Spec // the stored machine spec of a handle
}

func (sh *shadow) get(key string) (*diva.Snapshot, spec.Spec) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	return e.snap, e.machine
}

func (sh *shadow) put(key string, snap *diva.Snapshot, machine spec.Spec) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries == nil {
		sh.entries = map[string]shadowEntry{}
	}
	sh.entries[key] = shadowEntry{snap, machine}
}

// replay repeats, by direct calls, the steps the handler took for req:
// decode, validate, build or restore or cache hit, fork, run, encode. Each
// step is a span below the handler's, so the handler's self time is what
// no public call accounts for. The replayed run must land on the same
// fingerprint as the reply did.
func (s *service) replay(req *request, tr *tracer, handler, op int) bool {
	step := func(name string, f func() error) error {
		id := tr.begin(name, handler, op)
		defer tr.end(id)
		return f()
	}
	var sp spec.Spec
	err := step(spanDecode, func() error {
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&sp)
	})
	if err != nil {
		return false
	}
	concurrent := diva.WithConcurrent(true)

	// The machine the run forks from, and the spec it runs under.
	var snap *diva.Snapshot
	machine := sp
	build := func() error {
		var m *diva.Machine
		if err := step(spanBuild, func() (err error) { m, err = diva.MachineFromSpec(sp, concurrent); return }); err != nil {
			return err
		}
		return step(spanSnapshot, func() (err error) { snap, err = m.Snapshot(); return })
	}
	restore := func() error {
		store, err := snapstore.Open(s.dir)
		if err != nil {
			return err
		}
		return step(spanLoad, func() (err error) { machine, snap, err = store.Load(req.handle, concurrent); return })
	}
	switch req.kind {
	case kindCreate:
		return s.replayCreate(req, sp, step, tr)
	case kindMissRun:
		err = build()
	case kindLoadRun:
		err = restore()
	case kindRun:
		// Two replays may both miss and both build; the server would have
		// made one wait, which costs it the same time.
		if snap, _ = s.shadow.get(req.key); snap == nil {
			err = build()
			s.shadow.put(req.key, snap, sp)
		}
	case kindResident:
		if snap, machine = s.shadow.get(req.handle); snap == nil {
			err = restore()
			s.shadow.put(req.handle, snap, machine)
		}
	}
	if err != nil {
		return false
	}
	machine.Workload, machine.TimeoutMS = sp.Workload, sp.TimeoutMS
	var n spec.Spec
	if step(spanValidate, func() error { n = machine.Normalized(); return machine.Validate() }) != nil {
		return false
	}
	var m *diva.Machine
	if step(spanFork, func() (err error) { m, err = diva.Fork(snap, diva.ForkConcurrent(true)); return }) != nil {
		return false
	}
	wl, err := diva.WorkloadFromSpec(n)
	if err != nil {
		return false
	}
	base := countsOf(m)
	var res diva.Result
	if step(spanRun, func() (err error) { res, err = runOn(m, wl); return }) != nil {
		return false
	}
	tr.count(m, base)
	got := outcomeOf(m, res)
	want := s.ref[req.key]
	got.CaptureEvents = want.CaptureEvents
	if got != want {
		reportFailure(req.key+" (replay)", nil, got, want)
		return false
	}
	return step(spanEncode, func() error { return encodeReply(runResponse(n, wl, got)) }) == nil
}

// replayCreate repeats POST /v1/snapshots: build, warm, snapshot, wire
// form, persist (into a directory of its own).
func (s *service) replayCreate(req *request, sp spec.Spec, step func(string, func() error) error, tr *tracer) bool {
	var n spec.Spec
	if step(spanValidate, func() error { n = sp.Normalized(); return sp.Validate() }) != nil {
		return false
	}
	var m *diva.Machine
	var wl diva.Workload
	if step(spanBuild, func() (err error) { m, wl, err = diva.FromSpec(n, diva.WithConcurrent(true)); return }) != nil {
		return false
	}
	var res diva.Result
	if step(spanRun, func() (err error) { res, err = runOn(m, wl); return }) != nil {
		return false
	}
	tr.count(m, counts{})
	if got, want := outcomeOf(m, res), s.ref[req.key]; got != want {
		reportFailure(req.key+" (replay)", nil, got, want)
		return false
	}
	var snap *diva.Snapshot
	if step(spanSnapshot, func() (err error) { snap, err = m.Snapshot(); return }) != nil {
		return false
	}
	// Save converts to the wire form itself; the separate span shows how
	// much of the save that conversion is.
	if step(spanWire, func() error { _, err := snap.Wire(); return err }) != nil {
		return false
	}
	store, err := snapstore.Open(s.shadowDir())
	if err != nil {
		return false
	}
	if step(spanSave, func() error { return store.Save(req.handle, n, snap) }) != nil {
		return false
	}
	return step(spanEncode, func() error {
		return encodeReply(serve.SnapshotResponse{Handle: req.handle, Shards: 1})
	}) == nil
}

// snapshotFileKB is the size of the stored snapshot files, median over
// the directory.
func (s *service) snapshotFileKB() float64 {
	if s.dir == "" {
		return 0
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "*.snap"))
	var kb []float64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			kb = append(kb, float64(st.Size())/1024)
		}
	}
	return median(kb)
}

func runResponse(n spec.Spec, wl diva.Workload, o outcome) serve.RunResponse {
	return serve.RunResponse{
		Workload: wl.Name(), Topology: n.Topology, Strategy: n.Strategy, Shards: 1, Seed: n.Seed,
		ElapsedUS: o.ElapsedUS, Fingerprint: o.Fingerprint, Events: o.Events,
		Congestion: serve.Cong{MaxBytes: o.MaxBytes, TotalBytes: o.TotalBytes},
	}
}

// encodeReply encodes v the way the server writes a reply.
func encodeReply(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
