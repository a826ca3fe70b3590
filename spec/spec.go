// Package spec defines the serializable run description of the diva
// simulator: one JSON-friendly Spec names the machine (topology, strategy,
// decomposition tree, network timing, seed, cache capacity) and
// the workload with its knobs. It is the single funnel every run
// description flows through — the divasim command line, embedding
// applications, and the HTTP service all build the same Spec and hand it
// to diva.FromSpec.
//
// The package links the simulator and reads its tables instead of keeping
// copies: tree names, fault kind names, and the transport and fault-draw
// defaults all come from the packages that implement them.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/strategy"
	"diva/topology"
)

// Spec describes one simulation run: the machine and the workload. The
// zero value of every field selects the documented default, so a minimal
// JSON document like {"workload":{"name":"matmul"}} is a complete run
// description.
type Spec struct {
	// Topology is the interconnect's registry name (see diva/topology).
	// Empty means "mesh".
	Topology string `json:"topology,omitempty"`
	// Rows, Cols are the machine dimensions. Both zero means 8×8.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Strategy is the data management strategy's registry name (see
	// diva/strategy). Empty or "handopt" builds a machine without shared
	// variables, for the hand-optimized message passing workloads.
	Strategy string `json:"strategy,omitempty"`
	// Tree overrides the decomposition-tree variant by the paper's name:
	// "2-ary", "4-ary", "16-ary", "2-4-ary", "4-8-ary" or "4-16-ary".
	// Empty keeps the strategy's registered default ("2-ary" for
	// hand-optimized machines).
	Tree string `json:"tree,omitempty"`
	// Seed is the master random seed. Identical specs give bit-identical
	// runs.
	Seed uint64 `json:"seed,omitempty"`
	// Shards is kept so that stored run descriptions which record it keep
	// decoding: 0 and 1 both mean the one sequential kernel, and any other
	// value is rejected because sharded execution was removed.
	Shards int `json:"shards,omitempty"`
	// CacheCapacity bounds the copy memory per node in bytes; 0 means
	// unbounded (the paper's default).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// Net overrides the network timing; nil means the GCel calibration.
	Net *Net `json:"net,omitempty"`
	// Fault injects link outages and node churn into the run; nil means a
	// fault-free machine (the exact pre-fault code path).
	Fault *Fault `json:"fault,omitempty"`
	// Recovery selects the fault-tolerance mode, one of RecoveryModes():
	// "oracle" (the default: the network holds in-flight messages across
	// outages and strategies re-route instantaneously) or "reactive"
	// (timeout-based failure detection over an ack/retransmit transport,
	// with strategy-level recovery). Empty means "oracle".
	Recovery string `json:"recovery,omitempty"`
	// AckTimeoutUS is the reactive transport's initial retransmission
	// timeout in simulated microseconds. MaxRetries is how many times it
	// retransmits an unacknowledged message before giving up and handing
	// it to the strategy. Backoff is its exponential backoff multiplier
	// between attempts, at least 1. Zero keeps the default RecoveryFields
	// lists; setting any of them requires recovery "reactive".
	AckTimeoutUS float64 `json:"ack_timeout_us,omitempty"`
	MaxRetries   int     `json:"max_retries,omitempty"`
	Backoff      float64 `json:"backoff,omitempty"`
	// TimeoutMS bounds the run's wall-clock time in milliseconds: when it
	// expires the simulation is canceled cooperatively at the kernel's
	// next checkpoint (diva.ErrCanceled; the service answers 504). 0 means
	// no per-run bound. The timeout is operational, not part of the
	// machine description — two specs differing only in timeout_ms
	// describe the same machine and the same simulated run.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Workload selects the application and its knobs.
	Workload Workload `json:"workload"`
}

// Net is the serializable form of diva.NetParams. A nil Net in a Spec
// means the GCel calibration; a non-nil Net is used verbatim (all fields,
// including zeros).
type Net struct {
	BytesPerUS      float64 `json:"bytes_per_us"`
	HopLatencyUS    float64 `json:"hop_latency_us"`
	StartupSendUS   float64 `json:"startup_send_us"`
	StartupRecvUS   float64 `json:"startup_recv_us"`
	LocalDeliveryUS float64 `json:"local_delivery_us"`
	NoBackpressure  bool    `json:"no_backpressure,omitempty"`
}

// Fault describes the fault injection of a run: an explicit event list,
// a seeded random draw, or both. Schedules are deterministic — the same
// spec always produces the same faults — and every down event must have a
// matching up event, so the run always heals.
type Fault struct {
	// Events are explicit timed faults, applied in at_us order (ties in
	// declaration order).
	Events []FaultEvent `json:"events,omitempty"`
	// LinkFailures and NodeChurn additionally draw that many randomized
	// link outages / node churns from the machine seed.
	LinkFailures int `json:"link_failures,omitempty"`
	NodeChurn    int `json:"node_churn,omitempty"`
	// MeanDownUS is the mean outage duration of drawn faults (actual
	// durations are uniform in [0.5, 1.5)×mean), HorizonUS the window they
	// start in. Zero keeps the default FaultFields lists.
	MeanDownUS float64 `json:"mean_down_us,omitempty"`
	HorizonUS  float64 `json:"horizon_us,omitempty"`
}

// FaultEvent is one explicit timed fault. Kind is one of FaultKinds():
// "link-down"/"link-up" affect every link between nodes A and B;
// "node-down"/"node-up" affect node A's whole network interface (B is
// ignored; the node's CPU keeps running — churn, not crash).
type FaultEvent struct {
	AtUS float64 `json:"at_us"`
	Kind string  `json:"kind"`
	A    int     `json:"a"`
	B    int     `json:"b,omitempty"`
}

// FaultKinds lists the event kind names a FaultEvent accepts: the names of
// the network's fault kinds, in kind order.
func FaultKinds() []string {
	names := make([]string, 0, mesh.FaultNodeUp+1)
	for k := mesh.FaultLinkDown; k <= mesh.FaultNodeUp; k++ {
		names = append(names, k.String())
	}
	return names
}

// FaultFields documents the fault-schedule spec fields for listings
// (-list, the service's /v1/registries).
func FaultFields() []Registered {
	return []Registered{
		{Name: "fault.events", Summary: "explicit timed faults: {at_us, kind: " + strings.Join(FaultKinds(), "|") + ", a, b}"},
		{Name: "fault.link_failures", Summary: "randomized link outages drawn from the machine seed"},
		{Name: "fault.node_churn", Summary: "randomized node churns drawn from the machine seed"},
		{Name: "fault.mean_down_us", Summary: fmt.Sprintf("mean outage duration of drawn faults (default %d)", mesh.DefaultMeanDownUS)},
		{Name: "fault.horizon_us", Summary: fmt.Sprintf("start window of drawn faults (default %d)", mesh.DefaultHorizonUS)},
	}
}

// The fault-tolerance mode names Spec.Recovery accepts.
const (
	RecoveryOracle   = core.RecoveryOracle
	RecoveryReactive = core.RecoveryReactive
)

// RecoveryModes lists the fault-tolerance modes Spec.Recovery accepts.
func RecoveryModes() []string {
	return []string{RecoveryOracle, RecoveryReactive}
}

// RecoveryFields documents the recovery spec fields for listings
// (-list, the service's /v1/registries).
func RecoveryFields() []Registered {
	d := mesh.DefaultReactParams()
	return []Registered{
		{Name: "recovery", Summary: "fault-tolerance mode: " + strings.Join(RecoveryModes(), "|") + " (default oracle)"},
		{Name: "ack_timeout_us", Summary: fmt.Sprintf("reactive transport's initial retransmission timeout (default %g)", d.AckTimeoutUS)},
		{Name: "max_retries", Summary: fmt.Sprintf("reactive transport's retransmissions before giving up (default %d)", d.MaxRetries)},
		{Name: "backoff", Summary: fmt.Sprintf("reactive transport's exponential backoff multiplier (default %g)", d.Backoff)},
	}
}

// Workload selects the application by name plus its knobs. Knobs that do
// not apply to the named workload are ignored; zero values select the
// documented defaults.
type Workload struct {
	// Name is one of WorkloadNames(): "matmul", "bitonic", "barneshut",
	// "matmul-handopt", "bitonic-handopt" or "stencil".
	Name string `json:"name"`
	// Block is matmul's block size in integers (perfect square;
	// default 1024).
	Block int `json:"block,omitempty"`
	// Keys is bitonic's keys per processor (default 4096).
	Keys int `json:"keys,omitempty"`
	// Bodies is barneshut's body count (default 4000).
	Bodies int `json:"bodies,omitempty"`
	// Steps is barneshut's time steps (default 7).
	Steps int `json:"steps,omitempty"`
	// MeasureFrom is barneshut's first measured step (default 2).
	MeasureFrom int `json:"measure_from,omitempty"`
	// Iters is stencil's iteration count (default 4).
	Iters int `json:"iters,omitempty"`
	// Halo is stencil's halo size in integers (default 64).
	Halo int `json:"halo,omitempty"`
	// Compute charges local computation costs (matmul, bitonic, stencil;
	// barneshut always computes).
	Compute bool `json:"compute,omitempty"`
	// Check verifies the workload's output against a sequential reference
	// (matmul, bitonic, stencil); the Result reports Verified.
	Check bool `json:"check,omitempty"`
	// Seed is the workload's own random seed; 0 inherits the Spec seed.
	Seed uint64 `json:"seed,omitempty"`
}

// Registered describes one registered name for listings (-list, the
// service's /v1/registries).
type Registered struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`
}

// workloads is the workload registry: every diva workload builder, with
// the hand-optimized variants marked — they need a strategy-free machine.
var workloads = []Registered{
	{Name: "matmul", Summary: "blocked matrix square through the data management strategy (§3.1)"},
	{Name: "matmul-handopt", Summary: "matrix square, hand-optimized message passing (needs strategy \"handopt\" and a 2D mesh)"},
	{Name: "bitonic", Summary: "bitonic sorting through the data management strategy (§3.2)"},
	{Name: "bitonic-handopt", Summary: "bitonic sorting, hand-optimized message passing (needs strategy \"handopt\")"},
	{Name: "barneshut", Summary: "SPLASH-2 derived N-body simulation with per-phase metrics (§3.3)"},
	{Name: "stencil", Summary: "iterative halo exchange, hand-optimized message passing (needs strategy \"handopt\")"},
}

// handopt marks the workloads that run without a data management strategy.
var handopt = map[string]bool{"matmul-handopt": true, "bitonic-handopt": true, "stencil": true}

// Workloads lists the registered workloads for help texts and the service
// registry endpoint.
func Workloads() []Registered {
	return append([]Registered(nil), workloads...)
}

// WorkloadNames lists the registered workload names in registration order.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// TreeNames lists the decomposition-tree variant names Spec.Tree accepts,
// in the paper's order.
func TreeNames() []string {
	names := make([]string, len(decomp.Variants))
	for i, t := range decomp.Variants {
		names[i] = t.Name()
	}
	return names
}

// HandOptimized reports whether the named workload runs without a data
// management strategy (Spec.Strategy must be empty or "handopt").
func HandOptimized(name string) bool { return handopt[name] }

// FieldError is one invalid Spec field. Field is the JSON path of the
// offending field ("workload.name", "topology", ...).
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError aggregates every invalid field of a Spec, so a caller
// (the service's 400 response, the CLI) can report them all at once.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "invalid spec: " + strings.Join(msgs, "; ")
}

// Decode reads one spec document from r: unknown fields are rejected, and
// nothing but whitespace may follow the document. It is the one decode path
// of the divasim -spec file and the service's request bodies. Errors of r
// itself are returned as they are.
func Decode(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var syntax *json.SyntaxError
		if err == nil || errors.As(err, &syntax) {
			err = errors.New("trailing data after the spec document")
		}
		return Spec{}, err
	}
	return s, nil
}

// Normalized returns a copy with every defaultable zero field filled in:
// the canonical form of the run description. Validate, the CLI, the
// service and diva.FromSpec all operate on the normalized form, so two
// specs that normalize equally describe the same run.
func (s Spec) Normalized() Spec {
	n := s
	if n.Topology == "" {
		n.Topology = "mesh"
	}
	if n.Rows == 0 && n.Cols == 0 {
		n.Rows, n.Cols = 8, 8
	}
	if n.Strategy == "handopt" {
		n.Strategy = ""
	}
	if n.Recovery == RecoveryOracle {
		n.Recovery = "" // the default mode, like strategy "handopt"
	}
	if n.Recovery == RecoveryReactive {
		d := mesh.DefaultReactParams()
		if n.AckTimeoutUS == 0 {
			n.AckTimeoutUS = d.AckTimeoutUS
		}
		if n.MaxRetries == 0 {
			n.MaxRetries = d.MaxRetries
		}
		if n.Backoff == 0 {
			n.Backoff = d.Backoff
		}
	}
	w := &n.Workload
	if w.Seed == 0 {
		w.Seed = n.Seed
	}
	if w.Block == 0 {
		w.Block = 1024
	}
	if w.Keys == 0 {
		w.Keys = 4096
	}
	if w.Bodies == 0 {
		w.Bodies = 4000
	}
	if w.Steps == 0 {
		w.Steps = 7
	}
	if w.MeasureFrom == 0 {
		w.MeasureFrom = 2
	}
	if w.Iters == 0 {
		w.Iters = 4
	}
	if w.Halo == 0 {
		w.Halo = 64
	}
	if s.Fault != nil {
		f := *s.Fault
		f.Events = append([]FaultEvent(nil), f.Events...)
		if f.LinkFailures > 0 || f.NodeChurn > 0 {
			if f.MeanDownUS == 0 {
				f.MeanDownUS = mesh.DefaultMeanDownUS
			}
			if f.HorizonUS == 0 {
				f.HorizonUS = mesh.DefaultHorizonUS
			}
		}
		n.Fault = &f
	}
	return n
}

// Validate checks the spec and returns nil or a *ValidationError listing
// every offending field. It validates the normalized form, so zero values
// that have defaults never fail.
func (s Spec) Validate() error {
	n := s.Normalized()
	var errs []FieldError
	errs = append(errs, n.machineErrors()...)
	errs = append(errs, n.workloadErrors()...)
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// ValidateMachine checks only the machine-describing fields, ignoring the
// workload — for embedders that build the machine from a Spec but drive
// their own programs.
func (s Spec) ValidateMachine() error {
	if errs := s.Normalized().machineErrors(); len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// maxProcessors caps rows×cols: every machine is built in memory before a
// run's deadline applies, so an unbounded one could exhaust the process.
// It is the graph topologies' cap and admits every figure machine.
const maxProcessors = 4096

// machineErrors validates the machine fields of a normalized spec.
func (s Spec) machineErrors() []FieldError {
	var errs []FieldError
	if !slices.Contains(topology.Names(), s.Topology) {
		errs = append(errs, FieldError{"topology",
			fmt.Sprintf("unknown topology %q (have %s)", s.Topology, strings.Join(topology.Names(), ", "))})
	}
	if s.Rows <= 0 {
		errs = append(errs, FieldError{"rows", fmt.Sprintf("must be positive, got %d", s.Rows)})
	}
	if s.Cols <= 0 {
		errs = append(errs, FieldError{"cols", fmt.Sprintf("must be positive, got %d", s.Cols)})
	}
	if s.Rows > 0 && s.Cols > 0 && s.Rows > maxProcessors/s.Cols {
		errs = append(errs, FieldError{"rows", fmt.Sprintf("rows×cols must be at most %d processors, got %d×%d", maxProcessors, s.Rows, s.Cols)})
	}
	if s.Strategy != "" && !slices.Contains(strategy.Names(), s.Strategy) {
		errs = append(errs, FieldError{"strategy",
			fmt.Sprintf("unknown strategy %q (have %s, or \"handopt\")", s.Strategy, strings.Join(strategy.Names(), ", "))})
	}
	if s.Tree != "" {
		if _, ok := decomp.ByName(s.Tree); !ok {
			errs = append(errs, FieldError{"tree",
				fmt.Sprintf("unknown tree %q (have %s)", s.Tree, strings.Join(TreeNames(), ", "))})
		}
	}
	if s.Shards < 0 {
		errs = append(errs, FieldError{"shards", fmt.Sprintf("must be non-negative, got %d", s.Shards)})
	} else if s.Shards > 1 {
		errs = append(errs, FieldError{"shards", fmt.Sprintf("must be 0 or 1, got %d: sharded execution was removed", s.Shards)})
	}
	if s.CacheCapacity < 0 {
		errs = append(errs, FieldError{"cache_capacity", fmt.Sprintf("must be non-negative, got %d", s.CacheCapacity)})
	}
	if s.TimeoutMS < 0 {
		errs = append(errs, FieldError{"timeout_ms", fmt.Sprintf("must be non-negative, got %d", s.TimeoutMS)})
	}
	switch s.Recovery {
	case "", RecoveryOracle, RecoveryReactive:
	default:
		errs = append(errs, FieldError{"recovery",
			fmt.Sprintf("unknown mode %q (have %s)", s.Recovery, strings.Join(RecoveryModes(), ", "))})
	}
	if s.Recovery == RecoveryReactive {
		if s.AckTimeoutUS <= 0 {
			errs = append(errs, FieldError{"ack_timeout_us", "must be positive"})
		}
		if s.MaxRetries <= 0 {
			errs = append(errs, FieldError{"max_retries", fmt.Sprintf("must be positive, got %d", s.MaxRetries)})
		}
		if s.Backoff < 1 {
			errs = append(errs, FieldError{"backoff", fmt.Sprintf("must be at least 1, got %g", s.Backoff)})
		}
	} else {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"ack_timeout_us", s.AckTimeoutUS != 0},
			{"max_retries", s.MaxRetries != 0},
			{"backoff", s.Backoff != 0},
		} {
			if f.set {
				errs = append(errs, FieldError{f.name, `requires recovery "reactive"`})
			}
		}
	}
	if f := s.Fault; f != nil {
		if len(f.Events) == 0 && f.LinkFailures == 0 && f.NodeChurn == 0 {
			errs = append(errs, FieldError{"fault", "set but empty: declare events or a link_failures/node_churn draw (or omit the section)"})
		}
		if f.LinkFailures < 0 {
			errs = append(errs, FieldError{"fault.link_failures", fmt.Sprintf("must be non-negative, got %d", f.LinkFailures)})
		}
		if f.NodeChurn < 0 {
			errs = append(errs, FieldError{"fault.node_churn", fmt.Sprintf("must be non-negative, got %d", f.NodeChurn)})
		}
		if f.LinkFailures > 0 || f.NodeChurn > 0 {
			if f.MeanDownUS <= 0 {
				errs = append(errs, FieldError{"fault.mean_down_us", "must be positive"})
			}
			if f.HorizonUS <= 0 {
				errs = append(errs, FieldError{"fault.horizon_us", "must be positive"})
			}
		}
		for i, ev := range f.Events {
			if !slices.Contains(FaultKinds(), ev.Kind) {
				errs = append(errs, FieldError{fmt.Sprintf("fault.events[%d].kind", i),
					fmt.Sprintf("unknown kind %q (have %s)", ev.Kind, strings.Join(FaultKinds(), ", "))})
			}
			if ev.AtUS < 0 {
				errs = append(errs, FieldError{fmt.Sprintf("fault.events[%d].at_us", i), "must be non-negative"})
			}
			if ev.A < 0 || ev.B < 0 {
				errs = append(errs, FieldError{fmt.Sprintf("fault.events[%d]", i), "node ids must be non-negative"})
			}
		}
	}
	if p := s.Net; p != nil {
		if p.BytesPerUS <= 0 {
			errs = append(errs, FieldError{"net.bytes_per_us", "must be positive"})
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"net.hop_latency_us", p.HopLatencyUS},
			{"net.startup_send_us", p.StartupSendUS},
			{"net.startup_recv_us", p.StartupRecvUS},
			{"net.local_delivery_us", p.LocalDeliveryUS},
		} {
			if f.v < 0 {
				errs = append(errs, FieldError{f.name, "must be non-negative"})
			}
		}
	}
	return errs
}

// workloadErrors validates the workload fields of a normalized spec,
// including the cross rules tying workloads to strategies.
func (s Spec) workloadErrors() []FieldError {
	var errs []FieldError
	w := s.Workload
	if w.Name == "" {
		return append(errs, FieldError{"workload.name", "required (have " + strings.Join(WorkloadNames(), ", ") + ")"})
	}
	if !slices.Contains(WorkloadNames(), w.Name) {
		return append(errs, FieldError{"workload.name",
			fmt.Sprintf("unknown workload %q (have %s)", w.Name, strings.Join(WorkloadNames(), ", "))})
	}
	if HandOptimized(w.Name) {
		if s.Strategy != "" {
			errs = append(errs, FieldError{"strategy",
				fmt.Sprintf("workload %q is hand-optimized message passing; strategy must be empty or \"handopt\", got %q", w.Name, s.Strategy)})
		}
	} else if s.Strategy == "" {
		errs = append(errs, FieldError{"strategy",
			fmt.Sprintf("workload %q needs a data management strategy (have %s)", w.Name, strings.Join(strategy.Names(), ", "))})
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"workload.block", w.Block},
		{"workload.keys", w.Keys},
		{"workload.bodies", w.Bodies},
		{"workload.steps", w.Steps},
		{"workload.iters", w.Iters},
		{"workload.halo", w.Halo},
	} {
		if f.v <= 0 {
			errs = append(errs, FieldError{f.name, fmt.Sprintf("must be positive, got %d", f.v)})
		}
	}
	if w.MeasureFrom < 0 || w.MeasureFrom >= w.Steps {
		errs = append(errs, FieldError{"workload.measure_from",
			fmt.Sprintf("must be in [0, steps), got %d with %d steps", w.MeasureFrom, w.Steps)})
	}
	return errs
}
