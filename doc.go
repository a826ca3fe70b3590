// Package diva is an embeddable reproduction of "Data Management in
// Networks: Experimental Evaluation of a Provably Good Strategy" (Krick,
// Meyer auf der Heide, Räcke, Vöcking, Westermann; SPAA 1999): the DIVA
// (Distributed Variables) library — transparent access to global variables
// on a simulated parallel machine — together with the access tree data
// management strategy, the fixed home baseline, the paper's three
// applications and a harness that regenerates every figure of the
// evaluation.
//
// # The public API
//
// This package is the façade applications link against, the way the
// paper's DIVA is a library application code links against. Build a
// machine with New and functional options, returning validated errors:
//
//	m, err := diva.New(
//		diva.WithMesh(16, 16),
//		diva.WithStrategyName("at4"),
//		diva.WithSeed(1999),
//	)
//
// Strategies (fixedhome, at2, at4, at16, at2k4, at4k8, at4k16, atrandom)
// and topologies (mesh, torus, hypercube, fattree) are selectable by
// string through the name-keyed registries in diva/strategy and
// diva/topology — the single source of truth behind every -strategy and
// -topology flag — or passed explicitly with WithStrategy and
// WithTopology. Registries are open: embedders Register their own
// strategies and interconnects and every existing workload runs on them
// unchanged.
//
// SPMD programs run one process per processor and access shared state
// exclusively through the Proc operations:
//
//	v := p.Alloc(size, value)   // create a global variable
//	x := p.Read(v)              // transparent read (may migrate copies)
//	p.Write(v, y)               // transparent write (invalidates copies)
//	p.Lock(v) / p.Unlock(v)     // per-variable mutual exclusion
//	p.Barrier()                 // global barrier synchronization
//
// The paper's applications — matrix multiplication, bitonic sorting,
// Barnes-Hut — implement the Workload interface, so any application runs
// on any (topology × strategy) cell through one driver; diva/experiments
// exposes the figure harness the same way. cmd/divasim and
// cmd/experiments are thin CLIs over exactly this surface.
//
// # Specs, snapshot/fork and the service
//
// A run is serializable: diva/spec defines the JSON-friendly Spec naming
// the machine (topology, strategy, tree, network timing, seed, cache
// capacity) and the workload with its knobs, with typed per-field
// validation. FromSpec turns a Spec into a machine and a workload, so the
// divasim command line, a -spec document, an embedder and the HTTP
// service all describe the identical, bit-reproducible run.
//
// A quiescent machine (every process finished, no event pending) can be
// captured with Machine.Snapshot and resumed any number of times with
// Fork: fork-then-run is bit-identical — event-order fingerprint and all
// simulated metrics — to continuing the source machine, and concurrent
// forks share no mutable state. The canonical use is
// simulation-as-a-service: run a warm-up workload once, snapshot, fork
// per query. diva/serve wraps this as an HTTP server (divasim serve) with
// POST /v1/run, POST/GET /v1/snapshots, GET /v1/registries and
// GET /v1/healthz, a bounded worker pool and 429 load shedding; the same
// capture doubles as a checkpoint for crash-consistent long runs —
// diva/snapstore persists it to disk (atomic rename, checksummed,
// versioned) and a fork from the loaded state is bit-identical to a fork
// from the live one, across process restarts. ForkSeed re-derives a
// fork's random streams so independent scenario branches diverge from a
// shared warm state.
//
// What depends only on the topology and the tree spec — the decomposition
// tree every access tree is a copy of, the route memo, the embedding
// position tables, a registry-named topology's instance with a graph's
// BFS tables — is one immutable plan, built once per process and shared by
// reference by every machine on that topology and tree: New finds it in a
// small process-wide table (the built-in topologies are immutable; a
// Topology of your own gets a plan per machine), a Snapshot pins its
// machine's, and a Fork
// builds only the per-machine state (links, clocks, inboxes, caches, the
// kernel) before restoring the captured one.
//
// Long runs are cancellable without giving up determinism. RunContext and
// WorkloadContext tie a run to a context.Context; cancellation (or an
// expired deadline, or the spec's timeout_ms through the service) raises
// a cooperative flag the kernel polls every 1024 events — zero cost when
// unarmed — and the run returns ErrCanceled (a *CanceledError carrying
// progress diagnostics). The contract is all-or-nothing at the
// observation level: a canceled machine is permanently stopped and can
// never be snapshotted, so no partially-executed state escapes, while the
// snapshot the machine was forked from — and every sibling fork, and the
// continued source — replay bit-identically as if the canceled run had
// never happened.
//
// # Faults and irregular networks
//
// diva/fault injects link failures and node churn into any run. A
// schedule is either declared explicitly (timed link-down/link-up/
// node-down/node-up events, WithFaults) or drawn deterministically from
// the machine seed (WithFaultGen); a spec document declares either form
// under its "fault" key, and both build bit-identical machines when they
// describe the same events. Faults are applied lazily in the network's
// deterministic routing order — no extra kernel events — so faulty runs
// keep every determinism guarantee: fingerprints are identical across
// re-runs and forks, and snapshot/fork works mid-schedule. A message
// whose shortest route crosses a dead link re-routes over the spanning
// forest of the live graph (path stretch); a message into a partitioned
// or churned-out region is held and retransmitted when the schedule heals
// it. Network.FaultStats reports availability, stretch and retry traffic.
//
// Irregular interconnects to degrade come from the graph:* topology
// registry entries (graph:regular, graph:er, graph:degraded) — arbitrary
// connected graphs with precomputed BFS shortest-path route tables — and
// the "faults" experiment sweeps strategy degradation under rising fault
// rates on the mesh and the degraded mesh.
//
// Holding a message until the exact heal time is an oracle: no simulated
// protocol ever observes the failure. WithRecovery(RecoveryReactive)
// switches a run to reactive fault tolerance — messages crossing a
// failure point are silently dropped, every cross-node message is
// acknowledged, and senders detect failures by retransmission timeout
// (WithAckTransport tunes the initial timeout, retry budget and
// exponential backoff; timeout jitter comes from dedicated per-node RNG
// streams derived from the run seed). After the retry budget is spent the
// strategy recovers at the protocol level: the fixed home strategy fails
// a dead home over to its rank-order successor, the access tree re-issues
// over the re-embedded spanning forest; receiver-side per-channel
// deduplication keeps both protocol-safe. Reactive runs simulate a
// different (more faithful) machine than oracle runs, but carry the same
// guarantees: fingerprints are identical across re-runs,
// declared-vs-drawn schedules and snapshot/fork — including forks taken
// mid-recovery — and Network.FaultStats adds drop, ack, retransmission,
// detection-latency, failover and re-issue counters. The default remains
// the oracle mode; spec documents select "recovery": "reactive" with
// ack_timeout_us, max_retries and backoff, and the "recovery" experiment
// compares the two modes across strategies and network shapes.
//
// # The implementation
//
// The library lives under internal/ and is re-exported here by type
// alias, so the public machine is bit-for-bit the internal one: start
// with internal/core (the DIVA library) and internal/core/accesstree
// (the paper's contribution).
//
// The network is pluggable (internal/mesh.Topology): the paper's 2D mesh
// is the default and is bit-identical to the original mesh-only
// implementation, and a 2D torus, a hypercube and a binary fat-tree run
// the same strategies unchanged — the hierarchical decomposition
// (internal/decomp) is computed from the topology, and the paper's
// modular embedding generalizes per region kind. The "topologies"
// experiment sweeps all strategies across the four networks at matched
// processor counts.
//
// The simulator's hot path is allocation-free by design (see PERF.md for
// the profile-driven rationale and the baseline-vs-after numbers): the
// event kernel is a hand-rolled 4-ary min-heap over unboxed tagged-union
// events (proc wakeup / typed callback / closure fallback), message
// delivery recycles Msg objects through a free list and schedules typed
// events instead of closures, and the access tree keeps its per-variable
// protocol state in dense slice-indexed node tables. Determinism is
// load-bearing — identical seeds must give identical event orders and
// metrics — and is pinned by golden regression tests (determinism_test.go,
// publicapi_test.go) via the kernel's event-order fingerprint, driven
// through both the internal construction path and this façade.
package diva
