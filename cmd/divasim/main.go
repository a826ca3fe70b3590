// Command divasim runs a single application/strategy configuration on a
// simulated machine and reports congestion and execution time — the
// exploration tool behind the experiment harness. It is built entirely on
// the public diva API: every invocation is turned into a diva.Spec (the
// serializable run description of diva/spec) and handed to diva.FromSpec,
// so a command line, a -spec JSON document and a request to the serve
// mode all describe the identical run.
//
// Examples:
//
//	divasim -app matmul -strategy at4 -mesh 16x16 -block 1024
//	divasim -app bitonic -strategy at2k4 -mesh 8x8 -keys 4096
//	divasim -app barneshut -strategy fixedhome -mesh 8x8 -bodies 4000
//	divasim -app matmul -strategy handopt -mesh 32x32 -block 4096
//	divasim -app barneshut -strategy at4 -topology torus -mesh 8x8
//	divasim -spec run.json
//	divasim -list
//	divasim serve -addr :8080 -workers 4
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diva"
	"diva/serve"
	"diva/spec"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	runMain(os.Args[1:])
}

// serveMain is the HTTP service mode: divasim serve [flags]. The server
// is hardened for operation: header/idle timeouts against slow clients,
// per-run deadlines, and a SIGTERM/SIGINT graceful drain — admission
// closes (503 + Retry-After) while in-flight runs get -drain-timeout to
// finish, then the listener shuts down.
func serveMain(args []string) {
	fs := flag.NewFlagSet("divasim serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 4, "concurrent simulation limit")
	queue := fs.Int("queue", 0, "wait-queue length beyond the workers (0 = 2x workers); excess requests get 429")
	cache := fs.Int("cache", 8, "machine snapshots kept warm (distinct machine descriptions)")
	snapshots := fs.String("snapshots", "", "directory for the on-disk snapshot store (enables /v1/snapshots and /v1/run?snapshot=...)")
	runTimeout := fs.Duration("run-timeout", 0, "server-side cap on each run's wall-clock time (0 = only per-request timeout_ms)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight runs on SIGTERM before they are canceled")
	fs.Parse(args)

	srv, err := serve.New(serve.Options{
		Workers: *workers, Queue: *queue, SnapshotCache: *cache,
		SnapshotDir: *snapshots, RunTimeout: *runTimeout,
	})
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slowloris guards: a client must finish its headers promptly and
		// cannot hold an idle connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	fmt.Printf("divasim: serving /v1/run, /v1/snapshots, /v1/registries, /v1/healthz on %s (%d workers)\n", *addr, *workers)

	select {
	case err := <-done:
		fail(err)
	case <-ctx.Done():
	}
	// Drain first, with the listener still up: rejected requests see 503 +
	// Retry-After, not connection refused, so load balancers fail over
	// cleanly. Only then shut the listener down.
	fmt.Fprintln(os.Stderr, "divasim: signal received, draining")
	srv.Drain(*drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "divasim: drained, bye")
}

// runFlags are the single-run mode's flags that are not part of the run
// description.
type runFlags struct {
	specFile               string
	list, verbose, heatmap bool
}

// specFromFlags parses the single-run mode's flags. The run-description
// flags bind straight into a diva.Spec, with the spec's own defaults:
// diva.Spec{}.Normalized() for the machine and workload knobs, and the
// reactive form for the transport defaults the help text names.
func specFromFlags(args []string) (diva.Spec, runFlags, error) {
	d := diva.Spec{}.Normalized()
	react := diva.Spec{Recovery: spec.RecoveryReactive}.Normalized()
	var s diva.Spec
	var rf runFlags
	var meshFlag string
	w := &s.Workload
	fs := flag.NewFlagSet("divasim", flag.ExitOnError)
	fs.StringVar(&w.Name, "app", "matmul", "application: matmul, bitonic, barneshut, stencil")
	fs.StringVar(&s.Strategy, "strategy", "at4", "data management strategy (see -list), or handopt")
	fs.StringVar(&meshFlag, "mesh", fmt.Sprintf("%dx%d", d.Rows, d.Cols), "mesh dimensions ROWSxCOLS")
	fs.StringVar(&s.Topology, "topology", d.Topology, "network topology (see -list; size from -mesh)")
	fs.StringVar(&s.Tree, "tree", "", "decomposition tree override: "+strings.Join(spec.TreeNames(), ", "))
	fs.IntVar(&w.Block, "block", d.Workload.Block, "matmul: block size in integers (perfect square)")
	fs.IntVar(&w.Keys, "keys", d.Workload.Keys, "bitonic: keys per processor")
	fs.IntVar(&w.Bodies, "bodies", d.Workload.Bodies, "barneshut: number of bodies")
	fs.IntVar(&w.Steps, "steps", d.Workload.Steps, "barneshut: time steps (last steps after -measure are measured)")
	fs.IntVar(&w.MeasureFrom, "measure", d.Workload.MeasureFrom, "barneshut: first measured step")
	fs.IntVar(&w.Iters, "iters", d.Workload.Iters, "stencil: iterations")
	fs.IntVar(&w.Halo, "halo", d.Workload.Halo, "stencil: halo size in integers")
	fs.BoolVar(&w.Compute, "compute", false, "charge local computation costs (matmul/bitonic/stencil)")
	fs.BoolVar(&w.Check, "check", false, "verify the output against a sequential reference (matmul/bitonic/stencil)")
	fs.Uint64Var(&s.Seed, "seed", 1999, "random seed")
	fs.StringVar(&s.Recovery, "recovery", spec.RecoveryOracle, "fault-tolerance mode: "+strings.Join(spec.RecoveryModes(), ", "))
	fs.Float64Var(&s.AckTimeoutUS, "ack-timeout", 0, fmt.Sprintf("reactive: initial retransmission timeout in simulated us (0 = default %g)", react.AckTimeoutUS))
	fs.IntVar(&s.MaxRetries, "retries", 0, fmt.Sprintf("reactive: retransmissions before the strategy recovers (0 = default %d)", react.MaxRetries))
	fs.Float64Var(&s.Backoff, "backoff", 0, fmt.Sprintf("reactive: exponential backoff multiplier (0 = default %g)", react.Backoff))
	fs.IntVar(&s.CacheCapacity, "capacity", 0, "cache capacity per node in bytes (0 = unbounded)")
	fs.StringVar(&rf.specFile, "spec", "", "run the spec JSON document from this file instead of the flags")
	fs.BoolVar(&rf.list, "list", false, "list the registered strategies, topologies and workloads, then exit")
	fs.BoolVar(&rf.verbose, "v", false, "print per-message-kind statistics")
	fs.BoolVar(&rf.heatmap, "heatmap", false, "print a per-link load heatmap (deciles of the busiest link)")
	fs.Parse(args)

	var err error
	s.Rows, s.Cols, err = parseMesh(meshFlag)
	// "handopt" selects the hand-optimized message passing variant of the
	// application instead of a data management strategy.
	if s.Strategy == "handopt" || w.Name == "stencil" {
		s.Strategy = ""
		if w.Name == "matmul" || w.Name == "bitonic" {
			w.Name += "-handopt"
		}
	}
	return s, rf, err
}

// runMain is the single-run mode: flags (or a -spec document) build one
// diva.Spec and run it.
func runMain(args []string) {
	s, rf, err := specFromFlags(args)
	if rf.list {
		printRegistries()
		return
	}
	if rf.specFile != "" {
		raw, rerr := os.ReadFile(rf.specFile)
		if rerr != nil {
			fail(rerr)
		}
		if s, err = spec.Decode(bytes.NewReader(raw)); err != nil {
			err = fmt.Errorf("%s: %w", rf.specFile, err)
		}
	}
	if err != nil {
		fail(err)
	}

	m, w, err := diva.FromSpec(s)
	if err != nil {
		fail(err)
	}
	// The spec's operational deadline applies on the command line too: the
	// run is canceled at a kernel checkpoint when it expires.
	if ms := s.Normalized().TimeoutMS; ms > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(ms)*time.Millisecond)
		defer cancel()
		w = diva.WorkloadContext(ctx, w)
	}
	col := diva.NewCollector(m)
	res, err := w.Run(m, col)
	if err != nil {
		fail(err)
	}

	name := "hand-optimized"
	if m.Strat != nil {
		name = m.Strat.Name()
	}
	fmt.Printf("application:  %s on %s\n", w.Name(), m.Topo)
	fmt.Printf("strategy:     %s\n", name)
	fmt.Printf("elapsed:      %.1f ms (simulated)\n", res.ElapsedUS/1000)
	fmt.Printf("fingerprint:  0x%016x (%d events)\n", m.K.Fingerprint(), m.K.Stat.Events)
	c := m.Net.Congestion(nil)
	fmt.Printf("congestion:   %d messages / %d bytes on the busiest link\n", c.MaxMsgs, c.MaxBytes)
	fmt.Printf("total load:   %d messages / %d bytes\n", c.TotalMsgs, c.TotalBytes)
	if sched := m.Net.FaultSchedule(); len(sched) > 0 {
		st := m.Net.FaultStats()
		fmt.Printf("faults:       %d events; availability %.0f%%, stretch %.2f, %d msgs re-routed, %d retry bytes\n",
			len(sched), 100*st.Availability(), st.Stretch(), st.Rerouted, st.RetryBytes)
	}
	if m.Net.Reactive() {
		st := m.Net.FaultStats()
		fmt.Printf("recovery:     reactive; %d dropped, %d retransmits, %d acks, %d detected (mean %.0f us), %d failovers, %d reissues\n",
			st.Dropped, st.Retransmits, st.AckMsgs, st.Detected, st.DetectLatencyUS(), st.Failovers, st.Reissues)
	}
	if res.Verified {
		fmt.Printf("verified:     output matches the sequential reference\n")
	}
	if col.Enabled() {
		fmt.Printf("\nmeasured steps (from step %d):\n", s.Normalized().Workload.MeasureFrom)
		tot := col.Total()
		fmt.Printf("  total: time %.1f ms, congestion %d msgs\n", tot.TimeUS/1000, tot.Cong.MaxMsgs)
		for _, ph := range col.PhaseNames() {
			r, _ := col.Phase(ph)
			fmt.Printf("  %-10s time %10.1f ms, congestion %8d msgs, compute %8.1f ms\n",
				ph, r.TimeUS/1000, r.Cong.MaxMsgs, r.MaxComputeUS/1000)
		}
	}
	if ev := diva.TotalEvictions(m); ev > 0 {
		fmt.Printf("replacements: %d copies evicted (capacity %d bytes/node)\n", ev, s.CacheCapacity)
	}
	if rf.verbose {
		msgs, bytes := m.Net.SendStats()
		fmt.Println("\nmessages by kind:")
		for k := range msgs {
			if msgs[k] > 0 {
				fmt.Printf("  kind %3d: %8d msgs, %12d bytes\n", k, msgs[k], bytes[k])
			}
		}
	}
	if rf.heatmap {
		hm, isMesh := diva.LinkHeatmap(m)
		if !isMesh {
			fail(fmt.Errorf("-heatmap is mesh-specific, topology is %s", m.Topo))
		}
		fmt.Println("\nhorizontal link load (deciles of the busiest link):")
		fmt.Print(hm)
		fmt.Println("\nbusiest links:")
		top, _ := diva.BusiestLinks(m, 8)
		for _, l := range top {
			fmt.Println(" ", l)
		}
	}
}

// printRegistries renders the -list output from the public registries.
func printRegistries() {
	fmt.Println("strategies:")
	for _, e := range diva.Strategies() {
		fmt.Printf("  %-10s %s\n", e.Name, e.Summary)
	}
	fmt.Println("  handopt    hand-optimized message passing (no data management strategy)")
	fmt.Println("\ntopologies:")
	for _, e := range diva.Topologies() {
		fmt.Printf("  %-10s %s\n", e.Name, e.Summary)
	}
	fmt.Println("\nworkloads:")
	for _, e := range diva.Workloads() {
		fmt.Printf("  %-16s %s\n", e.Name, e.Summary)
	}
	fmt.Println("\ntrees:")
	fmt.Printf("  %s\n", strings.Join(spec.TreeNames(), ", "))
	fmt.Println("\nfault schedule (spec fields):")
	for _, e := range spec.FaultFields() {
		fmt.Printf("  %-20s %s\n", e.Name, e.Summary)
	}
	fmt.Println("\nrecovery (spec fields):")
	for _, e := range spec.RecoveryFields() {
		fmt.Printf("  %-20s %s\n", e.Name, e.Summary)
	}
}

func parseMesh(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("mesh %q: want ROWSxCOLS", s)
	}
	r, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	c, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	if r <= 0 || c <= 0 {
		return 0, 0, fmt.Errorf("mesh %q: dimensions must be positive", s)
	}
	return r, c, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "divasim:", err)
	os.Exit(1)
}
