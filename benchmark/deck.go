package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"diva"
	"diva/spec"
)

// deck is a sequential workload: one pass runs every cell once, fresh,
// with the kernel pinned exactly as divasim and cmd/experiments run it
// (figures-dsm, faults-recovery). An op is Spec.Validate + diva.FromSpec +
// Workload.Run on a new machine.
type deck struct {
	name  string
	cells []cell
	seed  uint64
	cold  bool // skip the warm-up pass (unit tests)
	ref   map[string]outcome
}

func (d *deck) setup() error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	d.ref = ref
	// Warm-up pass: heap, goroutine pool and page cache reach the size the
	// largest cell needs before anything is timed.
	for _, c := range d.cells {
		if d.cold {
			break
		}
		s, key := c.variant(d.name, 0)
		if !d.op(s, key, nil, 0).ok {
			return fmt.Errorf("warm-up op %s failed", key)
		}
	}
	return nil
}

func (d *deck) maxRounds() int         { return math.MaxInt }
func (d *deck) check() (health, error) { return health{}, nil }
func (d *deck) teardown()              {}

// round runs one pass: the seed and the round number draw the order of the
// cells and the machine seed of each.
func (d *deck) round(r int, tr *tracer) ([]sample, time.Duration) {
	rng := rand.New(rand.NewPCG(d.seed, uint64(r)))
	samples := make([]sample, 0, len(d.cells))
	start := time.Now()
	for _, i := range rng.Perm(len(d.cells)) {
		s, key := d.cells[i].variant(d.name, rng.IntN(deckVariants))
		samples = append(samples, d.op(s, key, tr, r*len(d.cells)+len(samples)))
	}
	return samples, time.Since(start)
}

func (d *deck) op(s spec.Spec, key string, tr *tracer, id int) sample {
	start := time.Now()
	root := tr.begin(spanOp, -1, id)
	out, err := d.run(s, tr, root, id)
	tr.end(root)
	sm := sample{dur: time.Since(start), events: out.Events, simUS: out.ElapsedUS, cong: out.MaxBytes}
	if sm.ok = err == nil && out == d.ref[key]; !sm.ok {
		reportFailure(key, err, out, d.ref[key])
	}
	return sm
}

// run is the op itself, each public call in a span below root.
func (d *deck) run(s spec.Spec, tr *tracer, root, id int) (outcome, error) {
	sp := tr.begin(spanValidate, root, id)
	err := s.Validate()
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = tr.begin(spanBuild, root, id)
	m, wl, err := diva.FromSpec(s)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = tr.begin(spanRun, root, id)
	res, err := runOn(m, wl)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	tr.count(m, counts{})
	return outcomeOf(m, res), nil
}
