// Package lib holds one declaration of each kind the dead-declaration
// check must tell apart.
package lib

// unused has no caller: flagged.
func unused() {}

// Thing is aliased by the public package.
type Thing struct{}

// Aliased is reachable through the public alias: exempt.
func (Thing) Aliased() {}

type shape interface{ area() int }

type square struct{ side int }

// area implements shape: exempt.
func (s square) area() int { return s.side * s.side }

// split is called through walk's type-parameter constraint: exempt.
func (s square) split() (square, square) { return square{s.side / 2}, square{s.side / 2} }

func walk[R interface{ split() (R, R) }](r R) R {
	a, _ := r.split()
	return a
}

// onlyTested is called only from lib_test.go: flagged.
func (s square) onlyTested() int { return s.side }

// Run uses square through shape and through walk.
func Run() int {
	var s shape = walk(square{side: 4})
	return s.area()
}
