package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// sample is one op as its caller saw it.
type sample struct {
	dur    time.Duration // host time
	events uint64        // simulated kernel events the op executed
	simUS  float64       // simulated execution time
	cong   uint64        // simulated max-link bytes
	ok     bool          // completed in time and equal to reference.json
}

// A workload runs whole rounds. A round is a fixed list of ops derived
// from the benchmark seed and the round number alone, so two commits run
// the same work per round however many rounds fit the run's length.
type workload interface {
	// setup does everything that precedes the first timed op: inputs from
	// the seed, the reference, the server if any, and one untimed warm-up
	// pass. It is timed as setup_s.
	setup() error
	// round runs round r and returns one sample per op and the host time
	// the round took.
	round(r int, tr *tracer) ([]sample, time.Duration)
	// maxRounds bounds r.
	maxRounds() int
	// check is the workload's own verdict after the last round: for a
	// server, its health counters against the replies the benchmark saw.
	check() (health, error)
	teardown()
}

// health is what GET /v1/healthz reports; zero for workloads with no
// server.
type health struct {
	Runs, Rejected, Timeouts, Panics int
}

// roundStat is one round's measurement. A run reports the mean over the
// fastest quarter of its rounds: the sandbox's neighbours only ever slow a
// round down, for a second or a minute at a time, so the fast end of a run
// repeats from run to run where its mean and even its median round do not,
// and averaging a quarter of the rounds steadies it where a single fast
// round would not (README, "Measured run-to-run spread").
type roundStat struct {
	opsPerSec, eventsPerSec float64
	p50, p90                float64 // host ms per op
}

// phase is what a sequence of rounds measured.
type phase struct {
	samples []sample
	first   int    // samples[:first] is the phase's first round
	counts  counts // layer counters of the first round, when traced
	rounds  []roundStat
	mallocs uint64
	bytes   uint64
}

// runPhase runs rounds of w until another round of average length would
// overrun budget; it always runs one.
func runPhase(w workload, firstRound int, budget time.Duration, tr *tracer) phase {
	var p phase
	var wall time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n+firstRound < w.maxRounds(); {
		s, d := w.round(firstRound+n, tr)
		p.samples = append(p.samples, s...)
		wall += d
		n++
		if n == 1 {
			p.first = len(s)
			if tr != nil {
				p.counts = tr.counts
			}
		}
		ms := make([]float64, len(s))
		var events uint64
		for i, sm := range s {
			ms[i] = float64(sm.dur) / float64(time.Millisecond)
			events += sm.events
		}
		p.rounds = append(p.rounds, roundStat{
			opsPerSec: float64(len(s)) / d.Seconds(), eventsPerSec: float64(events) / d.Seconds(),
			p50: quantile(ms, 0.5), p90: quantile(ms, 0.9),
		})
		if wall+wall/time.Duration(n) > budget {
			break
		}
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	return p
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// fastQuarter returns the mean of one statistic over the best quarter of
// the rounds, at least one.
func (p phase) fastQuarter(stat func(roundStat) float64, higherIsBetter bool) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = stat(r)
	}
	sort.Float64s(xs)
	if higherIsBetter {
		slices.Reverse(xs)
	}
	xs = xs[:max(1, len(xs)/4)]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (p phase) opsPerSec() float64 {
	return p.fastQuarter(func(r roundStat) float64 { return r.opsPerSec }, true)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks, as numpy and Python's statistics do by default. A
// deck round has eight or nine ops of very different sizes: by nearest rank
// its p90 would be its single slowest op, the largest machine of the deck
// and the op the sandbox's neighbours disturb most; interpolated, the two
// slowest ops carry it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, _ := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the metrics a user of the system sees from the
// untraced timed phase. Rates and latencies are means over the fastest
// quarter of the rounds.
// Simulated totals are taken over round 0 only: its ops follow from the
// seed alone, so they repeat exactly for a seed however many rounds ran.
func endToEndMetrics(p phase, setups []float64) map[string]metric {
	var simUS float64
	var cong uint64
	for _, s := range p.samples[:p.first] {
		simUS += s.simUS
		cong += s.cong
	}
	ops := float64(len(p.samples))
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ops_per_s":            {p.opsPerSec(), "1/s"},
		"op_ms_p50":            {p.fastQuarter(func(r roundStat) float64 { return r.p50 }, false), "ms"},
		"op_ms_p90":            {p.fastQuarter(func(r roundStat) float64 { return r.p90 }, false), "ms"},
		"events_per_s":         {p.fastQuarter(func(r roundStat) float64 { return r.eventsPerSec }, true), "1/s"},
		"mallocs_per_op":       {float64(p.mallocs) / ops, "count"},
		"alloc_kb_per_op":      {float64(p.bytes) / 1024 / ops, "KiB"},
		"peak_rss_mb":          {peakRSSMB(), "MiB"},
		"sim_time_ms":          {simUS / 1000, "sim_ms"},
		"sim_congestion_bytes": {float64(cong), "sim_bytes"},
	}
}

// timedSetup runs w.setup and returns how long it took.
func timedSetup(w workload) (float64, error) {
	start := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	// Start every timed phase from a collected heap.
	runtime.GC()
	return time.Since(start).Seconds(), nil
}

var failuresReported atomic.Int64

// reportFailure explains a failed op on standard error, the first few
// times.
func reportFailure(key string, err error, got, want outcome) {
	if failuresReported.Add(1) > 10 {
		return
	}
	fmt.Fprintf(os.Stderr, "FAILED %s: err=%v\n   got %+v\n  want %+v\n", key, err, got, want)
}
