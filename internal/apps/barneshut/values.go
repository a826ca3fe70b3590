package barneshut

// values holds one run's Body and Cell values. Every write of a body or a
// cell installs a fresh value, and carving them from blocks spares an
// allocation a write. One holder serves every processor of the run without
// locking: a machine runs one process at a time.
type values struct {
	cells  slab[Cell]
	bodies slab[Body]
}

// slabLen is the number of values in a block.
const slabLen = 64

// slab carves values of T from blocks of slabLen. A slot is filled once,
// before its pointer is published, and a block is never reused: snapshots,
// forks and messages in flight that share a pointer keep seeing the value
// they captured.
type slab[T any] struct {
	free []T
}

// new returns a pointer to a fresh slot holding v.
func (s *slab[T]) new(v T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabLen)
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}
