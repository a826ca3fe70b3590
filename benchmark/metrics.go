package main

import "time"

// endToEndNames and perLayerDefs list every metric in the order
// BENCHMARK.json does; bench_test.go holds code and file one-to-one.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "events_per_s",
	"mallocs_per_op", "alloc_kb_per_op", "peak_rss_mb",
	"sim_time_ms", "sim_congestion_bytes",
}

// perLayer names one per-layer metric and its unit.
type perLayer struct {
	name string
	unit string
}

var perLayerDefs = []perLayer{
	// Spans of the traced pass, median per span name.
	{"spec.decode_us", "us"}, {"spec.validate_us", "us"},
	{"diva.build_us", "us"},
	{"core.snapshot_us", "us"}, {"core.fork_us", "us"}, {"core.wire_us", "us"},
	{"apps.run_ms", "ms"}, {"apps.run_share", "ratio"},
	{"serve.handler_us", "us"}, {"serve.encode_us", "us"}, {"serve.self_us", "us"}, {"serve.rtt_ms_p99", "ms"},
	{"client.rtt_us", "us"},
	{"snapstore.save_ms", "ms"}, {"snapstore.load_ms", "ms"}, {"snapstore.file_kb", "KiB"},
	// Counts read after each op of the first traced round: exact for a seed.
	{"sim.events", "count"}, {"sim.fused_deliveries", "count"}, {"sim.fused_busy_recv", "count"},
	{"mesh.msgs", "count"}, {"mesh.bytes", "sim_bytes"}, {"mesh.rerouted", "count"}, {"mesh.held", "count"},
	{"mesh.dropped", "count"}, {"mesh.retransmits", "count"}, {"mesh.acks", "count"}, {"mesh.false_timeouts", "count"},
	{"serve.requests", "count"}, {"serve.rejected", "count"}, {"serve.timeouts", "count"}, {"serve.panics", "count"},
	// Derived from spans and counts.
	{"mesh.hop_share", "ratio"}, {"sim.run_ns_per_event", "ns"},
	{"trace.overhead_ratio", "ratio"}, {"model.residual_share", "ratio"},
	// Probes: see probes.go.
	{"core.read_local_ns", "ns"}, {"core.barrier_us", "us"}, {"core.spawn_us_p1024", "us"},
	{"accesstree.read_remote_us", "us"}, {"accesstree.lock_handoff_us", "us"}, {"fixedhome.read_remote_us", "us"},
	{"mesh.hop_ns", "ns"}, {"mesh.delivery_ns", "ns"}, {"mesh.graph_route_ns", "ns"}, {"mesh.graph_reroute_ns", "ns"},
	{"mesh.reactive_steady_ns", "ns"}, {"mesh.reactive_storm_ns", "ns"},
	{"sim.queue_ns_256", "ns"}, {"sim.queue_ns_65536", "ns"},
	{"sim.switch_ns_pinned", "ns"}, {"sim.switch_ns_concurrent", "ns"}, {"sim.timer_ns", "ns"},
}

// perLayerMetrics turns the traced pass into the per-layer numbers.
// untraced is the comparison phase run with tracing off in the same
// process; probe holds the unit costs by metric name.
func perLayerMetrics(tr *tracer, traced, untraced phase, h health, fileKB float64, probe map[string]float64) map[string]metric {
	v := map[string]float64{}
	for _, sm := range []struct {
		span, metric string
		unit         time.Duration
	}{
		{spanDecode, "spec.decode_us", time.Microsecond}, {spanValidate, "spec.validate_us", time.Microsecond},
		{spanBuild, "diva.build_us", time.Microsecond}, {spanSnapshot, "core.snapshot_us", time.Microsecond},
		{spanFork, "core.fork_us", time.Microsecond}, {spanWire, "core.wire_us", time.Microsecond},
		{spanHandler, "serve.handler_us", time.Microsecond}, {spanEncode, "serve.encode_us", time.Microsecond},
		{spanRun, "apps.run_ms", time.Millisecond}, {spanSave, "snapstore.save_ms", time.Millisecond},
		{spanLoad, "snapstore.load_ms", time.Millisecond},
	} {
		v[sm.metric] = median(tr.durations(sm.span, sm.unit))
	}
	v["serve.self_us"] = median(tr.selfTimes(spanHandler, time.Microsecond))
	if len(tr.durations(spanHandler, time.Microsecond)) > 0 {
		v["serve.rtt_ms_p99"] = quantile(tr.durations(spanOp, time.Millisecond), 0.99)
		// What the client waited beyond the handler: loopback, net/http on
		// both sides, the reply decode.
		var beyond []float64
		for _, s := range tr.spans {
			if s.name == spanHandler {
				op := tr.spans[s.parent]
				beyond = append(beyond, float64((op.end-op.start)-(s.end-s.start))/float64(time.Microsecond))
			}
		}
		v["client.rtt_us"] = median(beyond)
	}
	v["snapstore.file_kb"] = fileKB

	c := traced.counts
	v["sim.events"], v["sim.fused_deliveries"], v["sim.fused_busy_recv"] = float64(c.events), float64(c.fused), float64(c.fusedBusy)
	v["mesh.msgs"], v["mesh.bytes"] = float64(c.msgs), float64(c.bytes)
	v["mesh.rerouted"], v["mesh.held"], v["mesh.dropped"] = float64(c.rerouted), float64(c.held), float64(c.dropped)
	v["mesh.retransmits"], v["mesh.acks"], v["mesh.false_timeouts"] = float64(c.retransmits), float64(c.acks), float64(c.falseTimeo)
	v["serve.requests"], v["serve.rejected"] = float64(h.Runs), float64(h.Rejected)
	v["serve.timeouts"], v["serve.panics"] = float64(h.Timeouts), float64(h.Panics)

	// Shares use the whole traced pass, not only its first round.
	all := tr.counts
	runNS := tr.total(spanRun) * 1e9
	v["apps.run_share"] = tr.total(spanRun) / tr.total(spanOp)
	v["mesh.hop_share"] = float64(all.fused) / float64(all.events)
	v["sim.run_ns_per_event"] = runNS / float64(all.events)
	v["trace.overhead_ratio"] = untraced.opsPerSec() / traced.opsPerSec()
	// The part of the run time that counts times unit costs do not explain:
	// a fused delivery is two events priced as one pooled message, every
	// other event as one queue push and pop, every ack or retransmission as
	// one timer. Process switches and protocol work have no counter yet, so
	// the residual is large; it is printed so the attribution above is not
	// read as exact.
	explained := float64(all.fused)*probe["mesh.delivery_ns"] +
		max(0, float64(all.events)-2*float64(all.fused))*probe["sim.queue_ns_256"] +
		float64(all.acks+all.retransmits)*probe["sim.timer_ns"]
	v["model.residual_share"] = 1 - explained/runNS
	for name, cost := range probe {
		v[name] = cost
	}

	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}
