// Command benchjson converts `go test -bench` output on stdin into a JSON
// document recording the host it ran on and, per benchmark name, ns/op,
// allocation counters and every reported simulated-result metric. `make
// bench` uses it to emit
// BENCH_<date>.json, so the perf trajectory of the simulator — and the
// simulated experiment outcomes riding along as b.ReportMetric values —
// stay machine-readable across PRs.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkFig -benchmem . | benchjson > BENCH_2026-07-26.json
//	benchjson -check BENCH_2026-07-26.json -expect benchlist.txt -require BenchmarkGraphRoute
//	benchjson -diff BENCH_old.json BENCH_new.json [-max-regress 50] [-max-alloc-regress 10]
//
// Check mode guards the pipeline against silent drift: it verifies the
// emitted file parses, that every benchmark named in -expect (one name per
// line, as printed by `go test -list`) is present, and that every entry
// recorded an iteration count and a positive ns/op. -require names
// benchmark prefixes (comma-separated) that must each match at least one
// entry — pointed at the committed baseline it forces a BENCH refresh when
// a new benchmark family lands, where -expect can only see what the
// current test binary lists.
//
// Diff mode compares two emitted documents benchmark by benchmark and
// fails when new is worse than old: an ns/op regression beyond
// -max-regress percent (generous by default — CI runs single iterations
// on shared machines, so wall-clock wobbles; not compared at all unless
// both documents record the same host, since nanoseconds from two
// machines say nothing about the code), an allocs/op regression
// beyond -max-alloc-regress percent plus a small absolute slack
// (allocation counts are near-deterministic, so the bound is tight and
// machine-independent), a benchmark that disappeared, or — with zero
// tolerance — ANY drift in a reported simulated metric (congestion,
// simulated time): those are deterministic, so any change means the
// simulation semantics changed, not the machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host is where a document's numbers were measured. ns/op is comparable
// only between documents whose hosts are equal.
type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"` // the "cpu:" line of the go test output
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"` // the -N suffix of the benchmark names
}

// document is an emitted BENCH_<date>.json. Files from before hosts were
// recorded are the bare benchmarks map; loadResults reads both.
type document struct {
	Host       *host             `json:"host,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// result is one benchmark line, decoded.
type result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Iterations  int64              `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	check := flag.String("check", "", "validate an emitted BENCH_<date>.json instead of converting stdin")
	expect := flag.String("expect", "", "check mode: file listing required benchmark names, one per line")
	require := flag.String("require", "", "check mode: comma-separated benchmark-name prefixes that must each match at least one entry")
	diff := flag.Bool("diff", false, "compare two BENCH json files: benchjson -diff old.json new.json")
	maxRegress := flag.Float64("max-regress", 50, "diff mode: max tolerated ns/op regression in percent (compared on the same host only)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 10, "diff mode: max tolerated allocs/op regression in percent (plus a fixed slack of 16 allocs)")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), *maxRegress, *maxAllocRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *check != "" {
		if err := runCheck(*check, *expect, *require); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	out := make(map[string]result)
	// The converter runs on the host and toolchain of the benchmark run it
	// is piped from (`go test ... | go run ./cmd/benchjson`).
	h := &host{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GoMaxProcs: 1}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			h.CPU = cpu
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix (e.g. "BenchmarkFoo-8") without
		// touching digits that belong to the benchmark name itself.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name, h.GoMaxProcs = name[:i], procs
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				r.Metrics[unit] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		out[name] = r
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(document{Host: h, Benchmarks: out}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadResults reads and parses an emitted BENCH json document; the host
// is nil for a file from before hosts were recorded.
func loadResults(path string) (map[string]result, *host, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s does not parse: %w", path, err)
	}
	if doc.Benchmarks == nil {
		if err := json.Unmarshal(data, &doc.Benchmarks); err != nil {
			return nil, nil, fmt.Errorf("%s does not parse: %w", path, err)
		}
	}
	if len(doc.Benchmarks) == 0 {
		return nil, nil, fmt.Errorf("%s contains no benchmark entries", path)
	}
	return doc.Benchmarks, doc.Host, nil
}

// runDiff compares new against old: it fails on a missing benchmark, an
// ns/op regression beyond maxRegress percent when both ran on the same
// recorded host (otherwise ns/op is not compared), an allocs/op regression
// beyond maxAllocRegress percent (+16 allocs absolute slack, so tiny
// benchmarks with near-zero allocation counts don't trip on noise), or
// any simulated-metric drift (zero tolerance: the metrics are
// deterministic). New benchmarks and new metrics are reported but
// allowed — the suite is expected to grow.
func runDiff(oldPath, newPath string, maxRegress, maxAllocRegress float64) error {
	old, oldHost, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	cur, curHost, err := loadResults(newPath)
	if err != nil {
		return err
	}
	sameHost := oldHost != nil && curHost != nil && *oldHost == *curHost
	nsGate := fmt.Sprintf("ns/op within %.0f%%", maxRegress)
	if !sameHost {
		nsGate = "ns/op not compared (different or unrecorded hosts)"
	}
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	var problems []string
	compared, added := 0, 0
	for name := range cur {
		if _, ok := old[name]; !ok {
			added++
		}
	}
	for _, name := range names {
		o := old[name]
		n, ok := cur[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: benchmark disappeared", name))
			continue
		}
		compared++
		if sameHost && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+maxRegress/100) {
			problems = append(problems, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
				name, 100*(n.NsPerOp/o.NsPerOp-1), o.NsPerOp, n.NsPerOp, maxRegress))
		}
		const allocSlack = 16
		if n.AllocsPerOp > o.AllocsPerOp*(1+maxAllocRegress/100)+allocSlack {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed %.0f -> %.0f (tolerance %.0f%% + %d)",
				name, o.AllocsPerOp, n.AllocsPerOp, maxAllocRegress, allocSlack))
		}
		metrics := make([]string, 0, len(o.Metrics))
		for unit := range o.Metrics {
			metrics = append(metrics, unit)
		}
		sort.Strings(metrics)
		for _, unit := range metrics {
			want := o.Metrics[unit]
			got, ok := n.Metrics[unit]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: simulated metric %q disappeared", name, unit))
				continue
			}
			if got != want {
				problems = append(problems, fmt.Sprintf("%s: simulated metric %q drifted: %v -> %v (must be bit-identical)",
					name, unit, want, got))
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchjson: DIFF:", p)
		}
		return fmt.Errorf("%d problem(s) comparing %s -> %s", len(problems), oldPath, newPath)
	}
	fmt.Printf("benchjson: %s -> %s ok (%d benchmarks compared, %d added, %s, allocs/op within %.0f%%, simulated metrics identical)\n",
		oldPath, newPath, compared, added, nsGate, maxAllocRegress)
	return nil
}

// runCheck validates an emitted JSON document: it must parse, contain
// every expected benchmark and at least one entry per required prefix,
// and every entry must have run.
func runCheck(path, expectPath, require string) error {
	got, _, err := loadResults(path)
	if err != nil {
		return err
	}
	var missing, broken []string
	for name, r := range got {
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			broken = append(broken, name)
		}
	}
	for _, prefix := range strings.Split(require, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for name := range got {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, prefix+"*")
		}
	}
	if expectPath != "" {
		want, err := os.ReadFile(expectPath)
		if err != nil {
			return err
		}
		expected := 0
		for _, line := range strings.Split(string(want), "\n") {
			name := strings.TrimSpace(line)
			if !strings.HasPrefix(name, "Benchmark") {
				continue
			}
			expected++
			// `go test -list` names a benchmark, not its sub-benchmarks.
			found := false
			for have := range got {
				if have == name || strings.HasPrefix(have, name+"/") {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, name)
			}
		}
		if expected == 0 {
			return fmt.Errorf("%s lists no benchmarks — expectation file drifted", expectPath)
		}
	}
	if len(missing) > 0 || len(broken) > 0 {
		return fmt.Errorf("%s: missing entries %v, entries without results %v", path, missing, broken)
	}
	fmt.Printf("benchjson: %s ok (%d entries)\n", path, len(got))
	return nil
}
