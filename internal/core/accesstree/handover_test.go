package accesstree

import (
	"testing"

	"diva/internal/core"
	"diva/internal/core/coretest"
	"diva/internal/decomp"
	"diva/internal/sim"
)

// adoptedReqs takes the set reqShelf holds under key into an arena without
// an Init hook and returns its records: the arena's first fresh record,
// which has no future, ends the set.
func adoptedReqs(key int) []*reqMsg {
	a := core.TxnArena[reqMsg]{Shelf: reqShelf, Key: key}
	var recs []*reqMsg
	for r := a.Acquire(); r.fut != nil; r = a.Acquire() {
		recs = append(recs, r)
	}
	return recs
}

// TestHandedOverRecords: the transaction records a drained run hands over
// hold nothing of the machine — the values its reads and writes carried
// are collected while the records wait on the shelf — and they reach only
// a machine whose tree has the same depth: a 32×32 machine run after a
// 4×4 one neither takes the 4×4 set nor gives its own under the 4×4 key.
func TestHandedOverRecords(t *testing.T) {
	cfg := func(side int) core.Config {
		return core.Config{Rows: side, Cols: side, Seed: 7, Tree: decomp.Ary4, Strategy: Factory()}
	}
	sim.DropSpares()
	coretest.CollectedAfterHandOver(t, cfg(4))
	coretest.CollectedAfterHandOver(t, cfg(32))
	for _, side := range []int{4, 32} {
		pathCap := 2*core.MustNewMachine(cfg(side)).Tree.MaxDepth + 1
		recs := adoptedReqs(pathCap)
		if len(recs) == 0 {
			t.Fatalf("%dx%d: no records on the shelf under path capacity %d", side, side, pathCap)
		}
		for _, r := range recs {
			if cap(r.path) != pathCap {
				t.Fatalf("%dx%d: a record with a path buffer of %d under key %d", side, side, cap(r.path), pathCap)
			}
			if r.v != nil || r.val != nil || r.write || r.fut.Done() {
				t.Fatalf("%dx%d: handed-over record keeps variable %v, value %v, write %v, completed future %v",
					side, side, r.v, r.val, r.write, r.fut.Done())
			}
		}
	}
}
