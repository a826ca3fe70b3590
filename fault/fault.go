// Package fault is the public façade over the simulator's fault-injection
// subsystem: deterministic schedules of link outages and node churn,
// applied lazily in the network's global routing order so faulty runs stay
// bit-reproducible, fingerprint-stable across re-runs and forks, and
// snapshot/fork-able like every other run.
//
// A schedule is either declared explicitly (a fault.Schedule of timed
// events, e.g. from a diva/spec document) or drawn at construction from a
// dedicated RNG derived from the machine seed via fault.Gen — the same
// seed always yields the same faults, and the draw leaves the machine's
// own random streams untouched, so a drawn schedule and the identical
// declared schedule build bit-identical machines. Install one with
// diva.WithFaults or diva.WithFaultGen; read the
// degradation counters back from metrics.Result.Faults (availability,
// re-route path stretch, recovery traffic).
//
// While faults are active, messages whose shortest path crosses a dead
// link are re-routed over a spanning tree of the live sub-network (rebuilt
// lazily per fault event, parents preferred by live degree); messages
// between disconnected or dead endpoints are held and retransmitted —
// with a fresh send startup — when the schedule reconnects them.
package fault

import "diva/internal/mesh"

// The fault types, re-exported by alias so embedders never import
// diva/internal/... directly.
type (
	// Kind classifies a schedule event: LinkDown, LinkUp, NodeDown, NodeUp.
	Kind = mesh.FaultKind
	// Event is one timed fault: at AtUS, the links named by (Kind, A, B)
	// change state (B is ignored for node events).
	Event = mesh.FaultEvent
	// Schedule is a deterministic sequence of events. Every down event
	// needs a matching up event; installation validates and sorts.
	Schedule = mesh.FaultSchedule
	// Gen describes a randomized schedule drawn at construction from a
	// seed-derived RNG: LinkFailures link outages and NodeChurn node
	// churns starting uniformly in [0, HorizonUS), lasting
	// MeanDownUS·[0.5, 1.5).
	Gen = mesh.FaultGen
	// Stats holds the degradation counters of a faulty run; see
	// Availability, Stretch and the Retry fields.
	Stats = mesh.FaultStats
)

// The event kinds.
const (
	// LinkDown takes down every link between nodes A and B (both
	// directions, all parallel links); LinkUp heals it.
	LinkDown = mesh.FaultLinkDown
	LinkUp   = mesh.FaultLinkUp
	// NodeDown takes down node A's network interface — every incident
	// link; the CPU keeps running (churn, not crash). NodeUp heals it.
	NodeDown = mesh.FaultNodeDown
	NodeUp   = mesh.FaultNodeUp
)
