package main

import (
	"strings"
	"testing"

	"diva"
	"diva/spec"
)

// TestDefaultFlagsAreTheSpecDefaults pins that the command line without
// flags describes the same run as the minimal document naming only the
// flags' own defaults (strategy at4, seed 1999, matmul): every other flag
// default is the spec's.
func TestDefaultFlagsAreTheSpecDefaults(t *testing.T) {
	got, _, err := specFromFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Decode(strings.NewReader(`{"strategy":"at4","seed":1999,"workload":{"name":"matmul"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Normalized() != want.Normalized() {
		t.Errorf("default flags normalize to\n %+v\nwant\n %+v", got.Normalized(), want.Normalized())
	}
}

// TestHandOptFlags pins how the flags select the hand-optimized variants:
// strategy "handopt" renames the application, and stencil never has a
// strategy.
func TestHandOptFlags(t *testing.T) {
	for _, c := range []struct {
		args     []string
		workload string
	}{
		{[]string{"-strategy", "handopt", "-app", "bitonic"}, "bitonic-handopt"},
		{[]string{"-strategy", "handopt", "-app", "matmul"}, "matmul-handopt"},
		{[]string{"-app", "stencil"}, "stencil"},
	} {
		s, _, err := specFromFlags(c.args)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workload.Name != c.workload || s.Strategy != "" {
			t.Errorf("%v: workload %q strategy %q, want %q without a strategy", c.args, s.Workload.Name, s.Strategy, c.workload)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", c.args, err)
		}
	}
}

// TestFlagsBindSpecFields pins that each run-description flag lands in its
// spec field, and that the other flags stay out of the spec.
func TestFlagsBindSpecFields(t *testing.T) {
	s, rf, err := specFromFlags([]string{
		"-mesh", "4x2", "-topology", "torus", "-tree", "2-ary", "-strategy", "at2",
		"-app", "barneshut", "-bodies", "64", "-steps", "3", "-measure", "1",
		"-recovery", "reactive", "-ack-timeout", "500", "-retries", "3", "-backoff", "1.5",
		"-capacity", "4096", "-seed", "7", "-v", "-heatmap",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := diva.Spec{
		Topology: "torus", Rows: 4, Cols: 2, Strategy: "at2", Tree: "2-ary", Seed: 7,
		CacheCapacity: 4096, Recovery: "reactive", AckTimeoutUS: 500, MaxRetries: 3, Backoff: 1.5,
		Workload: diva.WorkloadSpec{Name: "barneshut", Bodies: 64, Steps: 3, MeasureFrom: 1},
	}.Normalized()
	if s.Normalized() != want {
		t.Errorf("flags built\n %+v\nwant\n %+v", s.Normalized(), want)
	}
	if !rf.verbose || !rf.heatmap || rf.list || rf.specFile != "" {
		t.Errorf("run flags %+v", rf)
	}
	if _, _, err := specFromFlags([]string{"-mesh", "8"}); err == nil {
		t.Error("malformed -mesh accepted")
	}
}
