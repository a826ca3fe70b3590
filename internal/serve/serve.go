// Package serve implements simulation-as-a-service: an HTTP server that
// accepts serialized run descriptions (diva/spec documents) and answers
// with simulated results and the event-order fingerprint.
//
// The server is built on machine snapshot/fork. Each distinct machine
// description is constructed once, snapshotted at birth, and cached;
// every request forks an independent machine from the snapshot and runs
// its workload there. Forks share no mutable state, so concurrent queries
// are safe, and fork determinism guarantees a request's result is
// bit-identical however loaded the server is — the smoke tests pin
// concurrent fingerprints against sequential ones.
//
// Admission control is a bounded worker pool plus a bounded wait queue:
// at most Workers runs execute at once, at most Queue more wait, and
// anything beyond that is rejected immediately with 429 and a Retry-After
// derived from the queue depth — a saturated simulation server must shed
// load, not accumulate unbounded arenas.
//
// Operational hardening. Every run is tied to its request context: a
// client disconnect or a deadline (the spec's timeout_ms, capped by
// Options.RunTimeout) raises the kernel's cooperative cancellation flag
// and the run stops at the next checkpoint — deadline expiry answers 504
// with progress diagnostics, a vanished client just aborts the fork. A
// panicking run answers 500 and leaves the pool healthy. Drain stops
// admission (503 + Retry-After) and waits for in-flight runs, cancelling
// whatever is still running at the drain deadline. With Options.
// SnapshotDir set, warmed machine snapshots persist to a crash-consistent
// on-disk store (diva/snapstore): POST /v1/snapshots runs a warm-up spec
// once and answers a handle, /v1/run?snapshot=<handle> forks from the
// stored state — including after a server restart.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"diva"
	"diva/internal/core"
	"diva/internal/sim"
	"diva/snapstore"
	"diva/spec"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers bounds the simulations running concurrently (default 4).
	Workers int
	// Queue bounds the requests waiting for a worker beyond those running
	// (default 2×Workers). Requests beyond Workers+Queue get 429.
	Queue int
	// SnapshotCache bounds the distinct machine descriptions whose birth
	// snapshots are kept warm (default 8, least recently used eviction).
	SnapshotCache int
	// SnapshotDir, when non-empty, enables the on-disk snapshot store:
	// POST /v1/snapshots persists warmed machines there and
	// /v1/run?snapshot=<handle> forks from them, surviving restarts.
	SnapshotDir string
	// RunTimeout caps every run's wall-clock duration, in addition to the
	// per-request timeout_ms (the tighter bound wins). Zero means no
	// server-side cap.
	RunTimeout time.Duration
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.Workers
	}
	if o.SnapshotCache <= 0 {
		o.SnapshotCache = 8
	}
}

// maxSpecBytes bounds the request body: a spec document is small, and an
// unbounded read is a trivial memory DoS.
const maxSpecBytes = 1 << 20

// Server handles the /v1 simulation API. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	sem   chan struct{}
	store *snapstore.Store // nil without Options.SnapshotDir

	// baseCtx is canceled at the drain deadline: it is the ancestor of
	// every run's context, so cancelling it aborts whatever is still
	// simulating.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	drainOnce  sync.Once
	wg         sync.WaitGroup // admitted requests

	queued      atomic.Int64 // requests admitted and not yet finished
	inflight    atomic.Int64 // requests holding a worker
	runs        atomic.Int64 // completed successfully
	rejected    atomic.Int64 // shed with 429
	panics      atomic.Int64 // runs that panicked (answered 500)
	timeouts    atomic.Int64 // runs canceled by deadline (answered 504)
	disconnects atomic.Int64 // runs aborted by client disconnect

	snaps snapCache

	encodeLogOnce sync.Once

	// gate, when set by a test, runs while holding a worker slot — it
	// lets the saturation, drain and panic tests pin their paths
	// deterministically.
	gate func()
}

// New returns a server with the given options. It fails only when
// Options.SnapshotDir is set but unusable.
func New(o Options) (*Server, error) {
	o.defaults()
	s := &Server{opts: o, sem: make(chan struct{}, o.Workers)}
	if o.SnapshotDir != "" {
		st, err := snapstore.Open(o.SnapshotDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.snaps.cap = o.SnapshotCache
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/snapshots", s.handleSnapshots)
	s.mux.HandleFunc("/v1/registries", s.handleRegistries)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server: admission closes immediately (new
// runs get 503 with Retry-After; healthz keeps answering, reporting
// "draining"), in-flight runs get until timeout to finish, and whatever is
// still simulating at the deadline is canceled at its next kernel
// checkpoint. Drain returns when no run remains, the idle process
// workers the runs left behind have exited and the storage they left on
// the shelves is dropped; it is idempotent, and
// concurrent calls all block until the first completes.
func (s *Server) Drain(timeout time.Duration) {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		t := time.AfterFunc(timeout, s.baseCancel)
		defer t.Stop()
		s.wg.Wait()
		s.baseCancel()
		sim.DropIdleWorkers()
		sim.DropSpares()
	})
	s.wg.Wait()
}

// RunResponse is the /v1/run answer: the run's identity, the simulated
// outcome and the event-order fingerprint. Two responses with equal
// fingerprints executed the bit-identical event trajectory.
type RunResponse struct {
	Workload string `json:"workload"`
	Topology string `json:"topology"`
	Strategy string `json:"strategy"`
	// Shards is always 1: the simulator runs one sequential kernel. The
	// field stays for clients that read it.
	Shards      int     `json:"shards"`
	Seed        uint64  `json:"seed"`
	ElapsedUS   float64 `json:"elapsed_us"`
	Fingerprint string  `json:"fingerprint"`
	Events      uint64  `json:"events"`
	Verified    bool    `json:"verified"`
	Congestion  Cong    `json:"congestion"`
	Evictions   uint64  `json:"evictions,omitempty"`
	// Faults reports the degradation counters of a faulty run; absent on
	// fault-free machines.
	Faults *FaultSummary `json:"faults,omitempty"`
	// Recovery reports the reactive transport's counters; absent on
	// oracle-mode machines (the default).
	Recovery *RecoverySummary `json:"recovery,omitempty"`
}

// Cong is the congestion summary of a run.
type Cong struct {
	MaxMsgs    uint64 `json:"max_msgs"`
	MaxBytes   uint64 `json:"max_bytes"`
	TotalMsgs  uint64 `json:"total_msgs"`
	TotalBytes uint64 `json:"total_bytes"`
}

// FaultSummary is the degradation summary of a faulty run: availability
// (fraction of messages deliverable at departure), spanning-tree re-route
// counts and path stretch, and the recovery traffic of retransmissions.
type FaultSummary struct {
	Availability float64 `json:"availability"`
	Routed       uint64  `json:"routed"`
	Rerouted     uint64  `json:"rerouted"`
	Stretch      float64 `json:"stretch"`
	Held         uint64  `json:"held"`
	RetryMsgs    uint64  `json:"retry_msgs"`
	RetryBytes   uint64  `json:"retry_bytes"`
	HeldUS       float64 `json:"held_us"`
}

// RecoverySummary is the reactive-mode transport and failure-detector
// summary of a run: the traffic fault tolerance cost (acks,
// retransmissions, duplicates), the detector's outcomes (detections with
// mean latency, false timeouts, recovered suspects) and the strategy's
// recoveries (home failovers, re-issued requests).
type RecoverySummary struct {
	Dropped       uint64  `json:"dropped"`
	AckMsgs       uint64  `json:"ack_msgs"`
	AckBytes      uint64  `json:"ack_bytes"`
	Retransmits   uint64  `json:"retransmits"`
	DupDrops      uint64  `json:"dup_drops"`
	FalseTimeouts uint64  `json:"false_timeouts"`
	Detected      uint64  `json:"detected"`
	MeanDetectUS  float64 `json:"mean_detect_us"`
	Recovered     uint64  `json:"recovered"`
	Failovers     uint64  `json:"failovers"`
	Reissues      uint64  `json:"reissues"`
}

// SnapshotResponse is the POST /v1/snapshots answer.
type SnapshotResponse struct {
	Handle string `json:"handle"`
	// Shards is always 1, as in RunResponse.
	Shards int `json:"shards"`
	// Restored reports that the handle was recovered from disk rather than
	// warmed by this request — after a restart, typically.
	Restored bool `json:"restored,omitempty"`
}

// errorResponse is every non-200 body: a message, the per-field breakdown
// for validation failures, and the progress diagnostics of a 504 (how far
// the canceled run got, in events, simulated time and wall clock).
type errorResponse struct {
	Error        string            `json:"error"`
	Fields       []spec.FieldError `json:"fields,omitempty"`
	Events       uint64            `json:"events,omitempty"`
	SimElapsedUS float64           `json:"sim_elapsed_us,omitempty"`
	WallMS       int64             `json:"wall_ms,omitempty"`
}

// decodeSpec reads one bounded spec document from the request.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (spec.Spec, bool) {
	sp, err := spec.Decode(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec document exceeds %d bytes", tooBig.Limit), nil)
		} else {
			s.writeError(w, http.StatusBadRequest, "malformed spec: "+err.Error(), nil)
		}
		return sp, false
	}
	return sp, true
}

// validSpec validates sp, answering 400 with the per-field breakdown when
// it is invalid.
func (s *Server) validSpec(w http.ResponseWriter, sp spec.Spec) bool {
	err := sp.Validate()
	if ve, ok := err.(*spec.ValidationError); ok {
		s.writeError(w, http.StatusBadRequest, err.Error(), ve.Fields)
	}
	return err == nil
}

// admit applies admission control and registers the request with the
// drain group. On success the caller owns a worker slot and must call the
// returned release.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	// The wg.Add precedes the draining check: Drain sets the flag before
	// waiting, so every request it must wait for is already registered.
	s.wg.Add(1)
	if s.draining.Load() {
		s.wg.Done()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "server draining: not accepting new runs", nil)
		return nil, false
	}
	if q := s.queued.Add(1); q > int64(s.opts.Workers+s.opts.Queue) {
		s.queued.Add(-1)
		s.wg.Done()
		s.rejected.Add(1)
		// Estimate the queue drain time from its depth: with q-1 requests
		// ahead, a fresh attempt after depth/workers run-slots is likely to
		// be admitted.
		retry := 1 + (int(q)-1)/s.opts.Workers
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		s.writeError(w, http.StatusTooManyRequests, "server saturated: try again later", nil)
		return nil, false
	}
	s.sem <- struct{}{}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.sem
		s.queued.Add(-1)
		s.wg.Done()
	}, true
}

// runCtx derives the context governing one run: the request's own context
// (client disconnect), the server's drain deadline, and the effective
// timeout — the tighter of the spec's timeout_ms and Options.RunTimeout.
func (s *Server) runCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	d := s.opts.RunTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && (d == 0 || t < d) {
		d = t
	}
	if d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		prev := cancel
		cancel = func() { cancelT(); prev() }
	}
	prev := cancel
	return ctx, func() { stop(); prev() }
}

// finishRun classifies a run error and writes the response: client gone →
// nothing (the connection is dead), drain deadline → 503, request
// deadline → 504 with progress diagnostics, anything else → its status.
func (s *Server) finishRun(w http.ResponseWriter, r *http.Request, status int, err error, started time.Time) {
	var ce *diva.CanceledError
	if errors.As(err, &ce) {
		switch {
		case r.Context().Err() != nil:
			s.disconnects.Add(1)
			return
		case s.baseCtx.Err() != nil:
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, "server draining: run aborted", nil)
			return
		default:
			s.timeouts.Add(1)
			s.writeJSON(w, http.StatusGatewayTimeout, errorResponse{
				Error:        "deadline exceeded: run canceled at a kernel checkpoint",
				Events:       ce.Events,
				SimElapsedUS: float64(ce.At),
				WallMS:       time.Since(started).Milliseconds(),
			})
			return
		}
	}
	s.writeError(w, status, err.Error(), nil)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST a spec document", nil)
		return
	}
	sp, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	handle := r.URL.Query().Get("snapshot")
	if handle == "" {
		// Snapshot runs validate after merging with the stored machine
		// spec; plain runs validate the document as-is, up front.
		if !s.validSpec(w, sp) {
			return
		}
	} else if s.store == nil {
		s.writeError(w, http.StatusNotImplemented, "snapshot store not configured (start with a snapshot directory)", nil)
		return
	}

	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.runCtx(r, sp.TimeoutMS)
	defer cancel()
	started := time.Now()
	resp, status, err := s.runSafe(ctx, sp, handle)
	if err != nil {
		s.finishRun(w, r, status, err, started)
		return
	}
	s.runs.Add(1)
	s.writeJSON(w, http.StatusOK, resp)
}

// runSafe is run behind a panic barrier: one faulty run answers 500 and
// increments the panic counter instead of taking the process down.
func (s *Server) runSafe(ctx context.Context, sp spec.Spec, handle string) (resp *RunResponse, status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("serve: run panicked: %v\n%s", r, debug.Stack())
			resp, status, err = nil, http.StatusInternalServerError, fmt.Errorf("internal error: run panicked")
		}
	}()
	if s.gate != nil {
		s.gate()
	}
	if err := ctx.Err(); err != nil {
		// The deadline (or the client) expired while queued: report it as a
		// canceled run that executed nothing.
		return nil, 0, &diva.CanceledError{}
	}
	return s.run(ctx, sp, handle)
}

// run executes one spec on a fork — of the cached base machine, or of the
// stored snapshot when a handle is given (the stored spec supplies the
// machine half; the request supplies the workload).
func (s *Server) run(ctx context.Context, sp spec.Spec, handle string) (*RunResponse, int, error) {
	n := sp.Normalized()
	var snap *diva.Snapshot
	if handle != "" {
		e, err := s.snapshotByHandle(handle)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		merged := e.sp
		merged.Workload = sp.Workload
		merged.TimeoutMS = sp.TimeoutMS
		if err := merged.Validate(); err != nil {
			return nil, http.StatusBadRequest, err
		}
		n = merged.Normalized()
		snap = e.snap
	} else {
		var err error
		snap, err = s.snaps.base(n)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
	}
	m, err := diva.Fork(snap)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	wl, err := diva.WorkloadFromSpec(n)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	res, err := diva.WorkloadContext(ctx, wl).Run(m, nil)
	if err != nil {
		if errors.Is(err, diva.ErrCanceled) {
			return nil, 0, err
		}
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("run failed: %w", err)
	}
	c := m.Net.Congestion(nil)
	stratName := n.Strategy
	if stratName == "" {
		stratName = "handopt"
	}
	return &RunResponse{
		Workload:    wl.Name(),
		Topology:    n.Topology,
		Strategy:    stratName,
		Shards:      1,
		Seed:        n.Seed,
		ElapsedUS:   res.ElapsedUS,
		Fingerprint: fmt.Sprintf("0x%016x", m.K.Fingerprint()),
		Events:      m.K.Stat.Events,
		Verified:    res.Verified,
		Congestion: Cong{
			MaxMsgs: c.MaxMsgs, MaxBytes: c.MaxBytes,
			TotalMsgs: c.TotalMsgs, TotalBytes: c.TotalBytes,
		},
		Evictions: diva.TotalEvictions(m),
		Faults:    faultSummary(m),
		Recovery:  recoverySummary(m),
	}, 0, nil
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, http.StatusNotImplemented, "snapshot store not configured (start with a snapshot directory)", nil)
		return
	}
	switch r.Method {
	case http.MethodGet:
		entries, err := s.store.List()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error(), nil)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]interface{}{"snapshots": entries})
	case http.MethodPost:
		s.handleSnapshotCreate(w, r)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "POST a warm-up spec, or GET the list", nil)
	}
}

// handleSnapshotCreate warms a machine from the posted spec (machine +
// warm-up workload), snapshots it at quiescence and persists it under its
// canonical handle. Idempotent: re-posting an existing handle answers
// without re-running, including after a restart (the store is consulted
// before warming).
func (s *Server) handleSnapshotCreate(w http.ResponseWriter, r *http.Request) {
	sp, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	if !s.validSpec(w, sp) {
		return
	}

	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.runCtx(r, sp.TimeoutMS)
	defer cancel()
	started := time.Now()
	resp, status, err := s.snapshotSafe(ctx, sp)
	if err != nil {
		s.finishRun(w, r, status, err, started)
		return
	}
	s.runs.Add(1)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) snapshotSafe(ctx context.Context, sp spec.Spec) (resp *SnapshotResponse, status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("serve: snapshot warm-up panicked: %v\n%s", r, debug.Stack())
			resp, status, err = nil, http.StatusInternalServerError, fmt.Errorf("internal error: warm-up panicked")
		}
	}()
	if s.gate != nil {
		s.gate()
	}
	handle := snapstore.Handle(sp)
	e, err := s.warmOrLoad(ctx, handle, sp)
	if err != nil {
		if errors.Is(err, diva.ErrCanceled) {
			return nil, 0, err
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	return &SnapshotResponse{Handle: handle, Shards: 1, Restored: e.restored}, 0, nil
}

// faultSummary extracts the degradation counters; nil when the machine
// ran fault-free.
func faultSummary(m *diva.Machine) *FaultSummary {
	if m.Net.FaultSchedule() == nil {
		return nil
	}
	st := m.Net.FaultStats()
	return &FaultSummary{
		Availability: st.Availability(),
		Routed:       st.Routed,
		Rerouted:     st.Rerouted,
		Stretch:      st.Stretch(),
		Held:         st.Held,
		RetryMsgs:    st.RetryMsgs,
		RetryBytes:   st.RetryBytes,
		HeldUS:       st.HeldUS,
	}
}

// recoverySummary condenses the reactive transport counters of a run;
// nil when the machine runs in the default oracle mode.
func recoverySummary(m *diva.Machine) *RecoverySummary {
	if !m.Net.Reactive() {
		return nil
	}
	st := m.Net.FaultStats()
	return &RecoverySummary{
		Dropped:       st.Dropped,
		AckMsgs:       st.AckMsgs,
		AckBytes:      st.AckBytes,
		Retransmits:   st.Retransmits,
		DupDrops:      st.DupDrops,
		FalseTimeouts: st.FalseTimeouts,
		Detected:      st.Detected,
		MeanDetectUS:  st.DetectLatencyUS(),
		Recovered:     st.Recovered,
		Failovers:     st.Failovers,
		Reissues:      st.Reissues,
	}
}

// registriesResponse lists every registered name the spec layer accepts.
type registriesResponse struct {
	Strategies []diva.RegistryEntry `json:"strategies"`
	Topologies []diva.RegistryEntry `json:"topologies"`
	Workloads  []diva.RegistryEntry `json:"workloads"`
	Trees      []string             `json:"trees"`
	// Faults documents the fault-schedule spec fields (spec.Fault).
	Faults []diva.RegistryEntry `json:"faults"`
	// Recovery documents the fault-tolerance mode spec fields.
	Recovery []diva.RegistryEntry `json:"recovery"`
}

func (s *Server) handleRegistries(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, registriesResponse{
		Strategies: diva.Strategies(),
		Topologies: diva.Topologies(),
		Workloads:  diva.Workloads(),
		Trees:      spec.TreeNames(),
		Faults:     spec.FaultFields(),
		Recovery:   spec.RecoveryFields(),
	})
}

// healthzResponse reports liveness, the admission counters and the
// hardening counters.
type healthzResponse struct {
	Status      string `json:"status"` // "ok" or "draining"
	Runs        int64  `json:"runs"`
	Inflight    int64  `json:"inflight"`
	Queued      int64  `json:"queued"`
	Rejected    int64  `json:"rejected"`
	Panics      int64  `json:"panics"`
	Timeouts    int64  `json:"timeouts"`
	Disconnects int64  `json:"disconnects"`
	Snapshots   int    `json:"snapshots"`
	// Snapshot cache: requests that found their snapshot (base machine or
	// stored handle) resident, snapshots restored from the store because
	// they were not, and the total time those restores took.
	SnapshotHits   int64 `json:"snapshot_hits"`
	SnapshotLoads  int64 `json:"snapshot_loads"`
	SnapshotLoadUS int64 `json:"snapshot_load_us"`
	// Machine plans (decomposition tree, route memo, embedding tables,
	// topology instance — shared by every machine on the same topology and
	// tree): plans resident in the process, the memory their route memos
	// and embedding tables have grown to, machines built on a plan already
	// there, and plans built. A fork
	// takes its snapshot's plan and counts as neither.
	Plans      int   `json:"plans"`
	PlanBytes  int64 `json:"plan_bytes"`
	PlanHits   int64 `json:"plan_hits"`
	PlanBuilds int64 `json:"plan_builds"`
	// Kernel event storage (sim.StoreStats): sets of slabs and payload
	// tables that finished kernels left for the next ones, the memory they
	// keep resident (bounded by a constant), kernels that started on one,
	// and how the slab requests of the kernels finished so far were served
	// — from a free list or by allocation.
	KernelStoreSets      int    `json:"kernel_store_sets"`
	KernelStoreBytes     int64  `json:"kernel_store_bytes"`
	KernelStoreAdoptions uint64 `json:"kernel_store_adoptions"`
	KernelStoreHits      uint64 `json:"kernel_store_hits"`
	KernelStoreMisses    uint64 `json:"kernel_store_misses"`
	// The same for the run-transient storage above the kernel
	// (sim.RunStoreStats): message pools, receiver records, replay
	// journals and start times of the networks, transaction and barrier
	// records of the strategies, counted in messages and records, and the
	// snapshot store's file buffers.
	RunStoreSets      int    `json:"run_store_sets"`
	RunStoreBytes     int64  `json:"run_store_bytes"`
	RunStoreAdoptions uint64 `json:"run_store_adoptions"`
	RunStoreHits      uint64 `json:"run_store_hits"`
	RunStoreMisses    uint64 `json:"run_store_misses"`
	// Process runtime (sim.ProcStats): idle workers in the stock, first
	// wake-ups served from it or by a new one, switches of finished runs.
	ProcPoolIdle   int    `json:"proc_pool_idle"`
	ProcPoolHits   uint64 `json:"proc_pool_hits"`
	ProcPoolMisses uint64 `json:"proc_pool_misses"`
	ProcSwitches   uint64 `json:"proc_switches"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	plans := core.ReadPlanStats()
	store := sim.StoreStats()
	run := sim.RunStoreStats()
	procs := sim.ProcStats()
	s.writeJSON(w, http.StatusOK, healthzResponse{
		Status:      status,
		Runs:        s.runs.Load(),
		Inflight:    s.inflight.Load(),
		Queued:      s.queued.Load(),
		Rejected:    s.rejected.Load(),
		Panics:      s.panics.Load(),
		Timeouts:    s.timeouts.Load(),
		Disconnects: s.disconnects.Load(),
		Snapshots:   s.snaps.len(),

		SnapshotHits:   s.snaps.hits.Load(),
		SnapshotLoads:  s.snaps.loads.Load(),
		SnapshotLoadUS: s.snaps.loadUS.Load(),

		Plans:      plans.Plans,
		PlanBytes:  plans.Bytes,
		PlanHits:   plans.Hits,
		PlanBuilds: plans.Builds,

		KernelStoreSets:      store.Sets,
		KernelStoreBytes:     store.Bytes,
		KernelStoreAdoptions: store.Adoptions,
		KernelStoreHits:      store.Hits,
		KernelStoreMisses:    store.Misses,

		RunStoreSets:      run.Sets,
		RunStoreBytes:     run.Bytes,
		RunStoreAdoptions: run.Adoptions,
		RunStoreHits:      run.Hits,
		RunStoreMisses:    run.Misses,

		ProcPoolIdle:   procs.Idle,
		ProcPoolHits:   procs.Hits,
		ProcPoolMisses: procs.Misses,
		ProcSwitches:   procs.Switches,
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Almost always a client that went away mid-write; log the first
		// occurrence, not one line per dead connection.
		s.encodeLogOnce.Do(func() {
			log.Printf("serve: response encode failed (further occurrences suppressed): %v", err)
		})
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string, fields []spec.FieldError) {
	s.writeJSON(w, status, errorResponse{Error: msg, Fields: fields})
}

// snapCache caches machine snapshots with least-recently-used eviction,
// under two kinds of key: birth snapshots of base machines ("spec:" +
// machine description, shared by every workload and timeout) and warmed
// snapshots by store handle ("snap:" + handle). A base machine is built
// once, snapshotted before any process runs, and every request forks from
// the snapshot — construction cost is amortized across requests, and
// forks give per-request isolation.
type snapCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*snapEntry
	order []string // least recently used first

	hits, loads, loadUS atomic.Int64 // healthz counters
}

type snapEntry struct {
	once     sync.Once
	sp       spec.Spec // stored spec (handle entries only)
	snap     *diva.Snapshot
	restored bool // loaded from disk, not warmed by a request
	err      error
}

// entry returns the cached entry under key, creating (and LRU-evicting)
// as needed. The caller fills it under e.once.
func (c *snapCache) entry(key string) *snapEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*snapEntry)
	}
	e, ok := c.m[key]
	if ok {
		c.hits.Add(1)
		c.touch(key)
		return e
	}
	e = &snapEntry{}
	c.m[key] = e
	c.order = append(c.order, key)
	for len(c.order) > c.cap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	return e
}

// drop removes a failed entry so a later request can retry: run-time
// failures (a canceled warm-up, a vanished file) are not permanent
// properties of the key the way validation failures are. Only e itself is
// dropped: by the time its load has failed, e may have been evicted and the
// key re-created by a request that succeeded.
func (c *snapCache) drop(key string, e *snapEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] != e {
		return
	}
	delete(c.m, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// load restores a stored snapshot into e, counting the restore.
func (c *snapCache) load(e *snapEntry, store *snapstore.Store, handle string) {
	start := time.Now()
	e.sp, e.snap, e.err = store.Load(handle)
	e.restored = true
	c.loads.Add(1)
	c.loadUS.Add(time.Since(start).Microseconds())
}

// base returns the birth snapshot for the machine half of a normalized
// spec, building the base machine on first use. Concurrent requests for
// the same machine build it once (sync.Once); requests for different
// machines build in parallel.
func (c *snapCache) base(n spec.Spec) (*diva.Snapshot, error) {
	// The cache key is the canonical JSON of the machine fields only:
	// specs differing just in workload or timeout share one base machine.
	n.Workload = spec.Workload{}
	n.TimeoutMS = 0
	key, err := json.Marshal(n)
	if err != nil {
		return nil, err
	}
	e := c.entry("spec:" + string(key))
	e.once.Do(func() {
		var m *diva.Machine
		m, e.err = diva.MachineFromSpec(n)
		if e.err != nil {
			return
		}
		e.snap, e.err = m.Snapshot()
	})
	return e.snap, e.err
}

// snapshotByHandle resolves a stored snapshot: from the warm cache if the
// handle is resident, from disk otherwise.
func (s *Server) snapshotByHandle(handle string) (*snapEntry, error) {
	key := "snap:" + handle
	e := s.snaps.entry(key)
	e.once.Do(func() {
		s.snaps.load(e, s.store, handle)
		if e.err != nil {
			e.err = fmt.Errorf("unknown snapshot %q: %w", handle, e.err)
		}
	})
	if e.err != nil {
		s.snaps.drop(key, e)
		return nil, e.err
	}
	return e, nil
}

// warmOrLoad resolves the handle for POST /v1/snapshots: an existing file
// is loaded (idempotent re-posts, restart recovery), otherwise the spec's
// machine is built, warmed under ctx, snapshotted and persisted.
func (s *Server) warmOrLoad(ctx context.Context, handle string, sp spec.Spec) (*snapEntry, error) {
	key := "snap:" + handle
	e := s.snaps.entry(key)
	e.once.Do(func() {
		if s.store.Has(handle) {
			s.snaps.load(e, s.store, handle)
			return
		}
		n := sp.Normalized()
		m, wl, err := diva.FromSpec(n)
		if err != nil {
			e.err = err
			return
		}
		if _, err := diva.WorkloadContext(ctx, wl).Run(m, nil); err != nil {
			e.err = err
			return
		}
		snap, err := m.Snapshot()
		if err != nil {
			e.err = err
			return
		}
		if err := s.store.Save(handle, n, snap); err != nil {
			e.err = err
			return
		}
		e.sp, e.snap = n, snap
	})
	if e.err != nil {
		s.snaps.drop(key, e)
		return nil, e.err
	}
	return e, nil
}

func (c *snapCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

func (c *snapCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
