// Command benchmark is the repo's benchmark: four workloads that stress
// different layers of the simulator and its service, ten end-to-end
// metrics measured with tracing off, and a traced pass that attributes
// them to layers. README.md says why each workload and metric exists;
// BENCHMARK.json is the contract it is run under.
//
//	benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload in this process and prints, as its last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without --workload every workload runs, each in its own child process,
// untraced and then traced, and every metric is printed by name.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir is the one directory the benchmark writes to: the binary and
// the Go build cache (run.sh), snapshot files, span files.
const buildDir = ".bench_build"

// A run sets up at least setupRepeats times before it measures, and while
// its set-ups have taken less than setupBudget together up to
// maxSetupRepeats times: a set-up of half a second is as noisy as any
// half-second measurement here. setup_s is the median.
const (
	setupRepeats    = 3
	maxSetupRepeats = 7
	setupBudget     = 3.0 // seconds
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans; "" for nowhere
	// small is what a unit test can afford: short rounds, one setup, no
	// deck warm-up pass, probes at 1000 iterations. The code paths are the
	// same.
	small bool
}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case wlFigures:
		return &deck{name: wlFigures, cells: figuresCells, seed: c.seed, cold: c.small}, nil
	case wlFaults:
		return &deck{name: wlFaults, cells: faultsCells, seed: c.seed, cold: c.small}, nil
	case wlServe:
		sizes := roundSizes{run: 1000}
		if c.small {
			sizes.run = 200
		}
		return &service{name: wlServe, seed: c.seed, sizes: sizes}, nil
	case wlWarm:
		sizes := roundSizes{create: 2, load: 120, resident: 60, miss: 60}
		if c.small {
			sizes = roundSizes{create: 2, load: 24, resident: 8, miss: 12}
		}
		return &service{name: wlWarm, seed: c.seed, sizes: sizes}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames, ", "))
}

// run executes one workload as configured and returns its result line.
func run(c config) (result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for spent := 0.0; len(setups) < setupRepeats || (spent < setupBudget && len(setups) < maxSetupRepeats); {
		if len(setups) > 0 {
			w.teardown()
		}
		took, err := timedSetup(w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took)
		spent += took
		if c.small || c.trace {
			break
		}
	}
	defer w.teardown()
	budget := time.Duration(c.seconds * float64(time.Second))

	if !c.trace {
		p := runPhase(w, 0, budget, nil)
		_, err := w.check()
		if err != nil {
			fmt.Fprintln(os.Stderr, "self-check:", err)
		}
		return result{
			Correct: p.failed() == 0 && err == nil, Attempted: len(p.samples), Failed: p.failed(),
			Metrics: endToEndMetrics(p, setups),
		}, nil
	}

	// The traced pass goes first so that its first round is round 0, whose
	// ops — and so whose counts — follow from the seed alone. The untraced
	// comparison pass continues with the rounds after it.
	tr := newTracer()
	traced := runPhase(w, 0, budget/4, tr)
	rounds := len(traced.samples) / traced.first
	untraced := runPhase(w, rounds, budget/4, nil)
	h, err := w.check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "self-check:", err)
	}
	probeLimit := 0
	if c.small {
		probeLimit = 1000
	}
	probe, perr := runProbes(probeLimit)
	if perr != nil {
		return result{}, perr
	}
	var fileKB float64
	if s, ok := w.(*service); ok {
		fileKB = s.snapshotFileKB()
	}
	if c.spans != "" {
		if err := os.MkdirAll(filepath.Dir(c.spans), 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeChrome(c.spans); err != nil {
			return result{}, err
		}
	}
	failed := traced.failed() + untraced.failed()
	return result{
		Correct: failed == 0 && err == nil, Attempted: len(traced.samples) + len(untraced.samples), Failed: failed,
		Metrics: perLayerMetrics(tr, traced, untraced, h, fileKB, probe),
	}, nil
}

func main() {
	var c config
	var trace int
	var out, agree, genref string
	flag.StringVar(&c.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") in this process; default: all, each in a child process")
	flag.Uint64Var(&c.seed, "seed", 1, "draws deck order, machine seeds and the request mix")
	flag.Float64Var(&c.seconds, "seconds", 28, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, per-layer metrics; 0: tracing off, end-to-end metrics")
	flag.StringVar(&c.spans, "spans", "", "where a traced run writes its spans as Chrome-trace JSON (default "+buildDir+"/spans-<workload>.json)")
	flag.StringVar(&out, "out", "", "with no -workload: write every result and the host record to this file")
	flag.StringVar(&agree, "agree", "", "compare this results file with the one given as argument against the bounds of ./BENCHMARK.json")
	flag.StringVar(&genref, "genref", "", "regenerate reference.json into this file and exit")
	flag.Parse()
	c.trace = trace != 0

	var err error
	switch {
	case genref != "":
		err = generateReference(genref)
	case agree != "":
		if flag.NArg() != 1 {
			err = errors.New("usage: -agree a.json b.json")
			break
		}
		err = agreeFiles(agree, flag.Arg(0), "BENCHMARK.json")
	case c.workload == "":
		err = runAll(c, out)
	default:
		if c.trace && c.spans == "" {
			c.spans = filepath.Join(buildDir, "spans-"+c.workload+".json")
		}
		var r result
		if r, err = run(c); err == nil {
			err = printResult(r)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// printResult prints every metric by name with its unit, then the result
// line the driver reads.
func printResult(r result) error {
	printMetrics(os.Stdout, r.Metrics)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func printMetrics(w *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-28s %16.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// runAll runs every workload in a child process of this binary, untraced
// and then traced, so setup_s and peak_rss_mb belong to one workload.
func runAll(c config, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Host: hostRecord(), Seed: c.seed, Seconds: c.seconds, Workloads: map[string]*workloadRecord{}}
	for _, name := range workloadNames {
		wr := &workloadRecord{}
		rec.Workloads[name] = wr
		for trace := 0; trace <= 1; trace++ {
			start := time.Now()
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(c.seed),
				"-seconds", fmt.Sprint(c.seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s -trace %d: result line: %w", name, trace, err)
			}
			fmt.Printf("== %s, tracing %s: %d ops, %d failed, correct=%v, %.1f s wall\n",
				name, [2]string{"off", "on"}[trace], r.Attempted, r.Failed, r.Correct, time.Since(start).Seconds())
			printMetrics(os.Stdout, r.Metrics)
			if trace == 0 {
				wr.Correct, wr.Attempted, wr.Failed, wr.EndToEnd = r.Correct, r.Attempted, r.Failed, r.Metrics
				// The result line has no field for it: ops over the reported
				// rate.
				wr.WallS = float64(r.Attempted) / r.Metrics["ops_per_s"].Value
			} else {
				wr.Correct = wr.Correct && r.Correct
				wr.PerLayer = r.Metrics
			}
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
