package fixedhome

import (
	"testing"

	"diva/internal/core"
	"diva/internal/core/coretest"
	"diva/internal/sim"
)

// TestHandedOverRecords: the transaction records a drained run hands over
// hold nothing of the machine, and the values its transactions carried are
// collected while they wait on the shelf. A reactive machine, whose
// records are never recycled, hands over none.
func TestHandedOverRecords(t *testing.T) {
	sim.DropSpares()
	coretest.CollectedAfterHandOver(t, core.Config{Rows: 4, Cols: 4, Seed: 7, Strategy: Factory()})
	a := core.TxnArena[req]{Shelf: reqShelf}
	n := 0
	for r := a.Acquire(); r.fut != nil; r = a.Acquire() {
		if n++; r.v != nil || r.val != nil || r.write || r.fut.Done() {
			t.Fatalf("handed-over record keeps variable %v, value %v, write %v, completed future %v",
				r.v, r.val, r.write, r.fut.Done())
		}
	}
	if n == 0 {
		t.Fatal("no records on the shelf")
	}

	sim.DropSpares()
	coretest.CollectedAfterHandOver(t, core.Config{Rows: 4, Cols: 4, Seed: 7, Strategy: Factory(),
		Recovery: core.RecoveryReactive})
	if r := (&core.TxnArena[req]{Shelf: reqShelf}).Acquire(); r.fut != nil {
		t.Fatal("a reactive run handed over its records")
	}
}
