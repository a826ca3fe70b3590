package barneshut

import (
	"encoding/binary"
	"math"

	"diva/internal/core"
	"diva/internal/wire"
)

// Bodies, tree cells and the ROOT record live in machine variables, so a
// snapshot of a Barnes-Hut-warmed machine carries them (diva/snapstore).
// Bodies and cells are nearly every variable of such a machine; they cross
// as fixed-size records of little-endian words, and a snapshot's bodies
// (cells) are read back into one block.
func init() {
	wire.RegisterPointer(wire.KindBody, 8*bodyWords, appendBody, readBody)
	wire.RegisterPointer(wire.KindCell, 8*cellWords, appendCell, readCell)
	wire.RegisterValue(wire.KindRootInfo, 1, func(b []byte, ri rootInfo) []byte { return wire.AppendInt32(b, int32(ri.Root)) },
		func(r *wire.Reader) rootInfo { return rootInfo{Root: core.VarID(r.Int32())} })
}

const (
	bodyWords = 3 + 3 + 1 + 1
	cellWords = 3 + 1 + 1 + 8 + 3 + 1 + 1 + 8
)

func appendWords(b []byte, ws ...uint64) []byte {
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func appendVec(b []byte, v Vec3) []byte {
	return appendWords(b, math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z))
}

// word and vec read record word i (and the two behind it).
func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

func vec(b []byte, i int) Vec3 {
	return Vec3{math.Float64frombits(word(b, i)), math.Float64frombits(word(b, i+1)), math.Float64frombits(word(b, i+2))}
}

func appendBody(b []byte, v *Body) []byte {
	b = appendVec(appendVec(b, v.Pos), v.Vel)
	return appendWords(b, math.Float64bits(v.Mass), uint64(v.Cost))
}

func readBody(r *wire.Reader, v *Body) {
	if data := r.Bytes(8 * bodyWords); data != nil {
		*v = Body{Pos: vec(data, 0), Vel: vec(data, 3), Mass: math.Float64frombits(word(data, 6)), Cost: int64(word(data, 7))}
	}
}

func appendCell(b []byte, c *Cell) []byte {
	b = appendVec(b, c.Center)
	b = appendWords(b, math.Float64bits(c.Half), uint64(c.Level))
	for _, r := range c.Child {
		b = appendWords(b, uint64(r))
	}
	b = appendWords(appendVec(b, c.COM), math.Float64bits(c.Mass), uint64(c.Cost))
	for _, n := range c.ChildCost {
		b = appendWords(b, uint64(n))
	}
	return b
}

func readCell(r *wire.Reader, c *Cell) {
	data := r.Bytes(8 * cellWords)
	if data == nil {
		return
	}
	*c = Cell{
		Center: vec(data, 0), Half: math.Float64frombits(word(data, 3)), Level: int32(word(data, 4)),
		COM: vec(data, 13), Mass: math.Float64frombits(word(data, 16)), Cost: int64(word(data, 17)),
	}
	for i := range c.Child {
		c.Child[i] = Ref(word(data, 5+i))
		c.ChildCost[i] = int64(word(data, 18+i))
	}
}
