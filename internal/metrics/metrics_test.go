package metrics

import (
	"strings"
	"testing"

	"diva/internal/mesh"
	"diva/internal/sim"
)

func setup() (*sim.Kernel, *mesh.Network, *Collector) {
	k := sim.New()
	nw := mesh.NewNetwork(k, mesh.New(1, 4), mesh.Params{
		BytesPerUS: 1, HopLatencyUS: 1, StartupSendUS: 10, StartupRecvUS: 10,
		LocalDeliveryUS: 1,
	})
	nw.Handle(20, func(m *mesh.Msg) {})
	return k, nw, New(nw)
}

func TestWarmupExcluded(t *testing.T) {
	k, nw, c := setup()
	k.At(0, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 3, Size: 100, Kind: 20}) })
	k.At(1000, func() { c.Baseline() })
	k.At(2000, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 3, Size: 50, Kind: 20}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r := c.Total()
	if r.Cong.MaxBytes != 50 {
		t.Fatalf("warmup not excluded: max bytes %d, want 50", r.Cong.MaxBytes)
	}
	if r.Cong.TotalMsgs != 3 {
		t.Fatalf("total msgs %d, want 3 (one message over 3 links)", r.Cong.TotalMsgs)
	}
}

func TestPhaseAccumulation(t *testing.T) {
	k, nw, c := setup()
	k.At(0, func() { c.Baseline() })
	// Two "rounds" of the same phase, plus another phase in between.
	k.At(100, func() { c.StartPhase() })
	k.At(110, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 1, Size: 30, Kind: 20}) })
	k.At(500, func() { c.EndPhase("force") })
	k.At(600, func() { c.StartPhase() })
	k.At(610, func() { nw.Send(&mesh.Msg{Src: 2, Dst: 3, Size: 99, Kind: 20}) })
	k.At(700, func() { c.EndPhase("build") })
	k.At(800, func() { c.StartPhase() })
	k.At(810, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 1, Size: 70, Kind: 20}) })
	k.At(1200, func() { c.EndPhase("force") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	force, ok := c.Phase("force")
	if !ok {
		t.Fatal("phase force missing")
	}
	// Same link both rounds: accumulated bytes 100.
	if force.Cong.MaxBytes != 100 {
		t.Fatalf("force phase max bytes %d, want 100", force.Cong.MaxBytes)
	}
	if force.TimeUS != 800 {
		t.Fatalf("force phase time %v, want 800", force.TimeUS)
	}
	build, _ := c.Phase("build")
	if build.Cong.MaxBytes != 99 || build.TimeUS != 100 {
		t.Fatalf("build phase %+v", build)
	}
	names := c.PhaseNames()
	if len(names) != 2 || names[0] != "force" || names[1] != "build" {
		t.Fatalf("phase order %v", names)
	}
	if _, ok := c.Phase("missing"); ok {
		t.Fatal("unknown phase reported present")
	}
}

func TestPhaseNoopBeforeBaseline(t *testing.T) {
	k, _, c := setup()
	c.StartPhase() // must not panic or record
	c.EndPhase("x")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Phase("x"); ok {
		t.Fatal("phase recorded before baseline")
	}
}

func TestNestedPhasePanics(t *testing.T) {
	_, _, c := setup()
	c.Baseline()
	c.StartPhase()
	defer func() {
		if recover() == nil {
			t.Fatal("nested StartPhase did not panic")
		}
	}()
	c.StartPhase()
}

func TestComputeTracking(t *testing.T) {
	k, nw, c := setup()
	c.Baseline()
	k.Spawn("p", func(p *sim.Proc) {
		c.StartPhase()
		nw.Compute(p, 2, 500)
		nw.Compute(p, 1, 200)
		c.EndPhase("work")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Phase("work")
	if r.MaxComputeUS != 500 || r.TotalComputeUS != 700 {
		t.Fatalf("compute max=%v total=%v, want 500/700", r.MaxComputeUS, r.TotalComputeUS)
	}
	tot := c.Total()
	if tot.MaxComputeUS != 500 {
		t.Fatalf("total compute max %v", tot.MaxComputeUS)
	}
}

func TestHeatmap(t *testing.T) {
	k, nw, _ := setup()
	k.At(0, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 3, Size: 90, Kind: 20}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	h := HeatmapMsgs(nw.T.(mesh.Mesh), nw.AppendLoads(nil), nil)
	if !strings.Contains(h, "999") {
		t.Fatalf("heatmap of uniform path should be all-max: %q", h)
	}
}

func TestTopLinks(t *testing.T) {
	k, nw, _ := setup()
	k.At(0, func() { nw.Send(&mesh.Msg{Src: 0, Dst: 2, Size: 10, Kind: 20}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	top := TopLinks(nw.T.(mesh.Mesh), nw.AppendLoads(nil), 10)
	if len(top) != 2 {
		t.Fatalf("TopLinks returned %d entries, want 2", len(top))
	}
	if !strings.Contains(top[0], "10 bytes") {
		t.Fatalf("unexpected entry %q", top[0])
	}
}

func TestResultString(t *testing.T) {
	r := Result{TimeUS: 1000}
	if !strings.Contains(r.String(), "time=1000us") {
		t.Fatalf("String() = %q", r.String())
	}
}
