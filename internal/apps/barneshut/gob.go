package barneshut

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Bodies, tree cells and the ROOT record live in machine variables, so
// they must be gob-registered for a snapshot of a Barnes-Hut-warmed
// machine to persist to disk (diva/snapstore).
func init() {
	gob.RegisterName("diva/barneshut.Body", &Body{})
	gob.RegisterName("diva/barneshut.Cell", &Cell{})
	gob.RegisterName("diva/barneshut.rootInfo", rootInfo{})
	gob.RegisterName("diva/barneshut.Ref", Ref(0))
}

// Bodies and cells are nearly every variable of a Barnes-Hut machine, and
// gob's reflective walk over their nested structs and arrays costs about a
// microsecond a value — a third of restoring a snapshot. As fixed-size
// records of little-endian words (encoding.BinaryMarshaler, which gob
// honours) they cross the boundary in a tenth of that.
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

// MarshalBinary implements encoding.BinaryMarshaler.
func (b Body) MarshalBinary() ([]byte, error) {
	buf := appendVec(appendVec(make([]byte, 0, 8*bodyWords), b.Pos), b.Vel)
	return appendWords(buf, math.Float64bits(b.Mass), uint64(b.Cost)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *Body) UnmarshalBinary(data []byte) error {
	if len(data) != 8*bodyWords {
		return fmt.Errorf("barneshut: body record of %d bytes, want %d", len(data), 8*bodyWords)
	}
	*b = Body{Pos: vec(data, 0), Vel: vec(data, 3), Mass: math.Float64frombits(word(data, 6)), Cost: int64(word(data, 7))}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c Cell) MarshalBinary() ([]byte, error) {
	buf := appendVec(make([]byte, 0, 8*cellWords), c.Center)
	buf = appendWords(buf, math.Float64bits(c.Half), uint64(c.Level))
	for _, r := range c.Child {
		buf = appendWords(buf, uint64(r))
	}
	buf = appendWords(appendVec(buf, c.COM), math.Float64bits(c.Mass), uint64(c.Cost))
	for _, n := range c.ChildCost {
		buf = appendWords(buf, uint64(n))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Cell) UnmarshalBinary(data []byte) error {
	if len(data) != 8*cellWords {
		return fmt.Errorf("barneshut: cell record of %d bytes, want %d", len(data), 8*cellWords)
	}
	*c = Cell{
		Center: vec(data, 0), Half: math.Float64frombits(word(data, 3)), Level: int32(word(data, 4)),
		COM: vec(data, 13), Mass: math.Float64frombits(word(data, 16)), Cost: int64(word(data, 17)),
	}
	for i := range c.Child {
		c.Child[i] = Ref(word(data, 5+i))
		c.ChildCost[i] = int64(word(data, 18+i))
	}
	return nil
}
