package spec

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestMinimalSpecValid pins that the documented minimal documents are
// complete run descriptions.
func TestMinimalSpecValid(t *testing.T) {
	for _, doc := range []string{
		`{"workload":{"name":"matmul"},"strategy":"at4"}`,
		`{"workload":{"name":"stencil"}}`,
		`{"workload":{"name":"barneshut"},"strategy":"fixedhome","topology":"torus"}`,
	} {
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
	}
}

// TestDecodeOneDocument pins that Decode reads exactly one document:
// whitespace may follow it, anything else is an error, and so is an
// unknown field.
func TestDecodeOneDocument(t *testing.T) {
	const doc = `{"strategy":"at4","workload":{"name":"matmul"}}`
	for _, tail := range []string{"", "\n", " \t\r\n  "} {
		s, err := Decode(strings.NewReader(doc + tail))
		if err != nil {
			t.Errorf("tail %q: %v", tail, err)
		} else if s.Strategy != "at4" || s.Workload.Name != "matmul" {
			t.Errorf("tail %q: decoded %+v", tail, s)
		}
	}
	for _, bad := range []string{
		doc + ` {"rows":"garbage"} trailing junk`,
		doc + doc,
		doc + " x",
		doc + "]",
		`{"strategy":"at4","shard":2,"workload":{"name":"matmul"}}`,
		``,
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("%q decoded without error", bad)
		}
	}
}

// TestNormalizedDefaults pins the canonical defaults.
func TestNormalizedDefaults(t *testing.T) {
	n := Spec{Workload: Workload{Name: "matmul"}, Strategy: "at4", Seed: 7}.Normalized()
	if n.Topology != "mesh" || n.Rows != 8 || n.Cols != 8 {
		t.Errorf("machine defaults: %q %dx%d", n.Topology, n.Rows, n.Cols)
	}
	w := n.Workload
	if w.Block != 1024 || w.Keys != 4096 || w.Bodies != 4000 || w.Steps != 7 ||
		w.MeasureFrom != 2 || w.Iters != 4 || w.Halo != 64 {
		t.Errorf("workload defaults: %+v", w)
	}
	if w.Seed != 7 {
		t.Errorf("workload seed must inherit the spec seed, got %d", w.Seed)
	}
	if h := (Spec{Strategy: "handopt"}).Normalized(); h.Strategy != "" {
		t.Errorf("handopt must normalize to the empty strategy, got %q", h.Strategy)
	}
}

// TestValidateFieldErrors pins that every offending field is reported,
// under its JSON path, in one pass.
func TestValidateFieldErrors(t *testing.T) {
	s := Spec{
		Topology:      "ring",
		Rows:          -1,
		Cols:          8,
		Strategy:      "nope",
		Tree:          "3-ary",
		Shards:        -2,
		CacheCapacity: -3,
		Net:           &Net{BytesPerUS: 0},
		Workload:      Workload{Name: "matmul", Block: -5},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("want validation errors")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("want *ValidationError, got %T", err)
	}
	got := map[string]bool{}
	for _, f := range ve.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{
		"topology", "rows", "strategy", "tree", "shards",
		"cache_capacity", "net.bytes_per_us", "workload.block",
	} {
		if !got[want] {
			t.Errorf("missing field error %q in %v", want, ve.Fields)
		}
	}
	if got["cols"] {
		t.Error("cols is valid, must not be reported")
	}
}

// TestValidateShards pins the shards field: 0 and 1 both name the one
// sequential kernel; anything above 1 is refused because sharded execution
// was removed, and a negative count is refused as before.
func TestValidateShards(t *testing.T) {
	for _, tc := range []struct {
		shards int
		want   string // "" means valid
	}{
		{0, ""},
		{1, ""},
		{2, "sharded execution was removed"},
		{-1, "must be non-negative"},
	} {
		s := Spec{Rows: 4, Cols: 4, Shards: tc.shards, Workload: Workload{Name: "stencil"}}
		err := s.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("shards=%d: %v", tc.shards, err)
			}
			continue
		}
		ve, ok := err.(*ValidationError)
		if !ok || len(ve.Fields) != 1 || ve.Fields[0].Field != "shards" || !strings.Contains(ve.Fields[0].Msg, tc.want) {
			t.Errorf("shards=%d: got %v, want one shards field error mentioning %q", tc.shards, err, tc.want)
		}
	}
}

// TestValidateMachineSize pins the processor cap: rows×cols up to 4 096
// is valid, beyond it a rows field error — including products that
// overflow an int, which must not wrap into range.
func TestValidateMachineSize(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		ok         bool
	}{
		{32, 32, true},
		{64, 64, true},
		{1, 4096, true},
		{2, 2049, false},
		{65, 64, false},
		{50000, 50000, false},
		{1 << 32, 1 << 32, false}, // the product wraps to 0
		{1<<62 + 1, 4, false},     // the product wraps to 4
	} {
		s := Spec{Rows: tc.rows, Cols: tc.cols, Workload: Workload{Name: "stencil"}}
		err := s.ValidateMachine()
		if tc.ok {
			if err != nil {
				t.Errorf("%d×%d: %v", tc.rows, tc.cols, err)
			}
			continue
		}
		ve, ok := err.(*ValidationError)
		if !ok || len(ve.Fields) != 1 || ve.Fields[0].Field != "rows" || !strings.Contains(ve.Fields[0].Msg, "4096") {
			t.Errorf("%d×%d: got %v, want one rows field error naming the cap", tc.rows, tc.cols, err)
		}
	}
}

// TestStrategyWorkloadCrossRules pins the handopt/DSM pairing rules.
func TestStrategyWorkloadCrossRules(t *testing.T) {
	cases := []struct {
		strat, work string
		ok          bool
	}{
		{"at4", "matmul", true},
		{"", "matmul", false},         // DSM workload needs a strategy
		{"at4", "stencil", false},     // hand-optimized workload refuses one
		{"handopt", "stencil", true},  // explicit handopt
		{"", "bitonic-handopt", true}, // empty means handopt
		{"fixedhome", "barneshut", true},
	}
	for _, c := range cases {
		s := Spec{Strategy: c.strat, Workload: Workload{Name: c.work}}
		err := s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("strategy=%q workload=%q: err=%v, want ok=%v", c.strat, c.work, err, c.ok)
		}
	}
}

// TestValidateMachineIgnoresWorkload pins the machine-only entry point.
func TestValidateMachineIgnoresWorkload(t *testing.T) {
	s := Spec{Workload: Workload{Name: "no-such-workload"}}
	if err := s.ValidateMachine(); err != nil {
		t.Errorf("ValidateMachine must ignore the workload: %v", err)
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate must reject the unknown workload")
	}
}

// TestJSONRoundTrip pins that a normalized spec survives JSON intact, and
// that the wire names stay snake_case.
func TestJSONRoundTrip(t *testing.T) {
	s := Spec{
		Topology: "hypercube", Rows: 4, Cols: 8, Strategy: "at2k4",
		Tree: "2-4-ary", Seed: 42, Shards: 1, CacheCapacity: 1 << 20,
		Net:      &Net{BytesPerUS: 1, HopLatencyUS: 2, StartupSendUS: 3, StartupRecvUS: 4, LocalDeliveryUS: 5, NoBackpressure: true},
		Workload: Workload{Name: "bitonic", Keys: 128, Compute: true, Check: true, Seed: 9},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cache_capacity"`, `"bytes_per_us"`, `"measure_from"`} {
		if key == `"measure_from"` {
			continue // omitted: zero value
		}
		if !strings.Contains(string(b), key) {
			t.Errorf("wire form missing %s: %s", key, b)
		}
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Net == nil || *back.Net != *s.Net {
		t.Errorf("net did not round-trip: %+v", back.Net)
	}
	back.Net, s.Net = nil, nil
	if back != s {
		t.Errorf("spec did not round-trip:\n got %+v\nwant %+v", back, s)
	}
}

// TestRegistryListings pins the listing helpers.
func TestRegistryListings(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 6 {
		t.Fatalf("want 6 workloads, got %v", names)
	}
	ho := 0
	for _, w := range Workloads() {
		if w.Summary == "" {
			t.Errorf("workload %q has no summary", w.Name)
		}
		if HandOptimized(w.Name) {
			ho++
		}
	}
	if ho != 3 {
		t.Errorf("want 3 hand-optimized workloads, got %d", ho)
	}
	if len(TreeNames()) != 6 {
		t.Errorf("want 6 tree variants, got %v", TreeNames())
	}
}
