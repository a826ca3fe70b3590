package barneshut

import (
	"fmt"
	"math"
	"slices"

	"diva/internal/core"
)

// insertBody loads one body into the tree (phase 1). The traversal reads
// cells optimistically and locks a cell only to modify it, re-reading
// under the lock and retrying when another processor raced ahead — the
// synchronization structure of the SPLASH-2 code. Returns the depth at
// which the body was placed.
func insertBody(p *core.Proc, cfg Config, st *procState, root core.VarID, bv core.VarID) int {
	b := p.Read(bv).(*Body)
	cur := root
	for depth := 0; ; depth++ {
		if depth > maxTreeDepth {
			panic(fmt.Sprintf("barneshut: tree deeper than %d (coincident bodies?)", maxTreeDepth))
		}
		c := p.Read(cur).(*Cell)
		oct, _ := octant(c.Center, c.Half, b.Pos)
		child := c.Child[oct]
		switch {
		case child.Empty():
			p.Lock(cur)
			c = p.Read(cur).(*Cell)
			if c.Child[oct].Empty() {
				nc := *c
				nc.Child[oct] = MkBodyRef(bv)
				p.Write(cur, st.vals.cells.new(nc))
				p.Unlock(cur)
				return depth
			}
			p.Unlock(cur) // another processor filled the slot: re-examine

		case !child.IsBody():
			cur = child.VarID()

		default:
			// The slot holds a body: subdivide — replace it by a new cell
			// containing the old body, then continue the descent there.
			p.Lock(cur)
			c = p.Read(cur).(*Cell)
			if c.Child[oct] != child {
				p.Unlock(cur)
				continue
			}
			sc := subCenter(c.Center, c.Half, oct)
			newCell := Cell{Center: sc, Half: c.Half / 2, Level: c.Level + 1}
			old := p.Read(child.VarID()).(*Body)
			oct2, _ := octant(sc, newCell.Half, old.Pos)
			newCell.Child[oct2] = child
			ncv := p.Alloc(CellBytes, st.vals.cells.new(newCell))
			st.addCell(ncv, int(newCell.Level))
			nc := *c
			nc.Child[oct] = MkCellRef(ncv)
			p.Write(cur, st.vals.cells.new(nc))
			p.Unlock(cur)
			cur = ncv
		}
	}
}

// computeCOM fills in one cell's center of mass, total mass and subtree
// cost (phase 2). The cell's children at deeper levels were completed in
// earlier sweep iterations.
func computeCOM(p *core.Proc, cfg Config, st *procState, cv core.VarID) {
	c := p.Read(cv).(*Cell)
	nc := *c
	var com Vec3
	var mass float64
	var cost int64
	for i, ch := range c.Child {
		if ch.Empty() {
			continue
		}
		var m float64
		var pos Vec3
		var cc int64
		if ch.IsBody() {
			b := p.Read(ch.VarID()).(*Body)
			m, pos, cc = b.Mass, b.Pos, b.Cost
		} else {
			sub := p.Read(ch.VarID()).(*Cell)
			m, pos, cc = sub.Mass, sub.COM, sub.Cost
		}
		mass += m
		com = com.Add(pos.Scale(m))
		cost += cc
		nc.ChildCost[i] = cc
	}
	if mass > 0 {
		nc.COM = com.Scale(1 / mass)
	} else {
		nc.COM = c.Center
	}
	nc.Mass = mass
	nc.Cost = cost
	p.Write(cv, st.vals.cells.new(nc))
	if cfg.WithCompute {
		p.Compute(8 * cfg.OpenTestUS)
	}
}

// costzones reassigns the bodies (phase 3): processor with leaf number w
// takes the bodies whose prefix cost, in a canonical depth-first traversal
// of the octree, falls into [w·T/P, (w+1)·T/P). Subtrees outside the zone
// are pruned using the parent's ChildCost table, so the traversal reads
// only the cells on the zone's boundary paths plus its interior.
func costzones(p *core.Proc, cfg Config, st *procState, root core.VarID, w, procs int) {
	rc := p.Read(root).(*Cell)
	total := rc.Cost
	lo := int64(w) * total / int64(procs)
	hi := int64(w+1) * total / int64(procs)
	st.myBodies = st.myBodies[:0]

	var walk func(c *Cell, prefix int64)
	walk = func(c *Cell, prefix int64) {
		for i, ch := range c.Child {
			if ch.Empty() {
				continue
			}
			cc := c.ChildCost[i]
			start, end := prefix, prefix+cc
			if end > lo && start < hi {
				if ch.IsBody() {
					if start >= lo && start < hi {
						st.myBodies = append(st.myBodies, ch.VarID())
					}
				} else {
					walk(p.Read(ch.VarID()).(*Cell), prefix)
				}
			}
			prefix += cc
		}
	}
	walk(rc, 0)
}

// forces computes the acceleration on every owned body (phase 4) by the
// Barnes-Hut traversal and records the per-body work count (the cost for
// the next costzones). Returns the processor's interaction count.
func forces(p *core.Proc, cfg Config, st *procState, root core.VarID) int64 {
	st.accs = slices.Grow(st.accs[:0], len(st.myBodies))
	st.costs = slices.Grow(st.costs[:0], len(st.myBodies))
	var totalInter int64
	for _, bv := range st.myBodies {
		b := p.Read(bv).(*Body)
		var acc Vec3
		var inter, opens int64
		st.stack = st.stack[:0]
		st.stack = append(st.stack, MkCellRef(root))
		for len(st.stack) > 0 {
			ref := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			if ref.IsBody() {
				if ref.VarID() != bv {
					o := p.Read(ref.VarID()).(*Body)
					acc = acc.Add(accel(b.Pos, o.Pos, o.Mass, cfg.Eps))
					inter++
				}
				continue
			}
			c := p.Read(ref.VarID()).(*Cell)
			opens++
			d := c.COM.Sub(b.Pos).Norm()
			if 2*c.Half < cfg.Theta*d {
				// Far enough away: the whole subtree acts as one particle.
				acc = acc.Add(accel(b.Pos, c.COM, c.Mass, cfg.Eps))
				inter++
				continue
			}
			for _, ch := range c.Child {
				if !ch.Empty() {
					st.stack = append(st.stack, ch)
				}
			}
		}
		st.accs = append(st.accs, acc)
		cost := inter
		if cost < 1 {
			cost = 1
		}
		st.costs = append(st.costs, cost)
		totalInter += inter
		if cfg.WithCompute {
			p.Compute(float64(inter)*cfg.InteractionUS + float64(opens)*cfg.OpenTestUS)
		}
	}
	return totalInter
}

// advance integrates the owned bodies (phase 5) and stores their new state
// (which invalidates remote copies of the body).
func advance(p *core.Proc, cfg Config, st *procState) {
	for i, bv := range st.myBodies {
		b := p.Read(bv).(*Body)
		nb := *b
		nb.Vel = b.Vel.Add(st.accs[i].Scale(cfg.Dt))
		nb.Pos = b.Pos.Add(nb.Vel.Scale(cfg.Dt))
		nb.Cost = st.costs[i]
		p.Write(bv, st.vals.bodies.new(nb))
		if cfg.WithCompute {
			p.Compute(6 * cfg.OpenTestUS)
		}
	}
}

// reduceBounds computes the global bounding cube of all bodies (phase 6)
// with the barrier's all-reduce.
func reduceBounds(p *core.Proc, st *procState) cube {
	local := bbox{Lo: Vec3{math.Inf(1), math.Inf(1), math.Inf(1)},
		Hi: Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}}
	for _, bv := range st.myBodies {
		b := p.Read(bv).(*Body)
		local.Lo = local.Lo.Min(b.Pos)
		local.Hi = local.Hi.Max(b.Pos)
		local.Some = true
	}
	res := p.BarrierReduce(local, 48, combineBBox).(bbox)
	if !res.Some {
		return cube{Half: 1}
	}
	return boundsOf(res.Lo, res.Hi)
}
