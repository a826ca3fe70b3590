package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"diva"
)

// Span names. Each is the public call the span brackets, named after the
// repo module that owns it; "op" is the whole operation as its caller
// sees it.
const (
	spanOp       = "op"
	spanDecode   = "spec.decode"
	spanValidate = "spec.validate"
	spanBuild    = "diva.build"
	spanSnapshot = "core.snapshot"
	spanFork     = "core.fork"
	spanWire     = "core.wire"
	spanRun      = "apps.run"
	spanHandler  = "serve.handler"
	spanEncode   = "serve.encode"
	spanSave     = "snapstore.save"
	spanLoad     = "snapstore.load"
)

// span is one timed interval at a layer boundary. parent is the id of the
// span that caused it (-1 for an op); the spans of one op share its op id.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent, op int
}

// counts are the layer counters read off a machine after each traced op.
type counts struct {
	events, fused, fusedBusy                               uint64
	msgs, bytes                                            uint64
	rerouted, held, dropped, retransmits, acks, falseTimeo uint64
}

// tracer keeps spans and counts in memory; they are written out when the
// run ends. A nil *tracer records nothing, which is how the untraced run
// executes the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	counts
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// countsOf reads the layer counters of m, cumulative since its birth — for
// a fork, since the birth of the machine its snapshot was taken of.
func countsOf(m *diva.Machine) counts {
	c := m.Net.Congestion(nil)
	f := m.Net.FaultStats()
	return counts{
		events: m.K.Stat.Events, fused: m.K.Stat.FusedDeliveries, fusedBusy: m.K.Stat.FusedBusyRecv,
		msgs: c.TotalMsgs, bytes: c.TotalBytes,
		rerouted: f.Rerouted, held: f.Held, dropped: f.Dropped,
		retransmits: f.Retransmits, acks: f.AckMsgs, falseTimeo: f.FalseTimeouts,
	}
}

// count adds what the run on m counted beyond base, the counters m started
// the run with.
func (t *tracer) count(m *diva.Machine, base counts) {
	if t == nil {
		return
	}
	c := countsOf(m)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events += c.events - base.events
	t.fused += c.fused - base.fused
	t.fusedBusy += c.fusedBusy - base.fusedBusy
	t.msgs += c.msgs - base.msgs
	t.bytes += c.bytes - base.bytes
	t.rerouted += c.rerouted - base.rerouted
	t.held += c.held - base.held
	t.dropped += c.dropped - base.dropped
	t.retransmits += c.retransmits - base.retransmits
	t.acks += c.acks - base.acks
	t.falseTimeo += c.falseTimeo - base.falseTimeo
}

// durations returns the lengths of every span called name, in the unit
// given (time.Microsecond, time.Millisecond).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// total sums the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
		}
	}
	return sum.Seconds()
}

// selfTimes returns, for every span called name, its length minus the
// lengths of its direct children. The children of a span are recorded one
// after the other, so their lengths add up to the part they cover.
func (t *tracer) selfTimes(name string, unit time.Duration) []float64 {
	covered := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for id, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-covered[id])/float64(unit))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one complete event per span. Spans of one name share a group
// of rows; two that overlap in time (two clients, two workers) get
// separate rows of the group, because a viewer nests what shares a row.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`            // microseconds
		Dur  float64        `json:"dur,omitempty"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	const rowsPerName = 16
	byStart := make([]int, len(t.spans))
	for id := range byStart {
		byStart[id] = id
	}
	sort.SliceStable(byStart, func(i, j int) bool { return t.spans[byStart[i]].start < t.spans[byStart[j]].start })
	group := map[string]int{}
	busyUntil := map[string][]time.Duration{}
	var events []event
	for _, id := range byStart {
		s := t.spans[id]
		if _, ok := group[s.name]; !ok {
			group[s.name] = len(group)
		}
		rows := busyUntil[s.name]
		row := 0
		for row < len(rows) && rows[row] > s.start {
			row++
		}
		tid := group[s.name]*rowsPerName + row
		if row == len(rows) {
			rows = append(rows, 0)
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s #%d", s.name, row)}})
		}
		rows[row] = s.end
		busyUntil[s.name] = rows
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": id, "parent": s.parent, "op": s.op},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
