package wire

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

type point struct{ X, Y int }

func init() {
	RegisterPointer(250, 2, func(b []byte, p *point) []byte { return AppendInt(AppendInt(b, p.X), p.Y) },
		func(r *Reader, p *point) { p.X, p.Y = r.Int(), r.Int() })
	RegisterSlice[[]uint64](251, 1, AppendUvarint, (*Reader).Uvarint)
}

// TestValuesRoundTrip: a list of values of several kinds, nil among them,
// reads back equal; the pointer values of a kind share one block and the
// slices of a kind one backing array.
func TestValuesRoundTrip(t *testing.T) {
	vs := []any{7, nil, &point{1, -2}, "seven", []uint64{1, 2, 3}, uint64(1 << 60), &point{3, 4}, []uint64{}, -9, []uint64{5}}
	b, err := AppendValues(nil, vs)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	got := r.Values(len(vs))
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("%d values read, %d written", len(got), len(vs))
	}
	for i := range vs {
		if s, ok := vs[i].([]uint64); ok && len(s) == 0 {
			if g, ok := got[i].([]uint64); !ok || len(g) != 0 {
				t.Errorf("value %d: got %#v, want an empty []uint64", i, got[i])
			}
			continue
		}
		if !reflect.DeepEqual(got[i], vs[i]) {
			t.Errorf("value %d: got %#v, want %#v", i, got[i], vs[i])
		}
	}
	if p, q := got[2].(*point), got[6].(*point); unsafe.Pointer(q) != unsafe.Add(unsafe.Pointer(p), unsafe.Sizeof(point{})) {
		t.Error("the pointer values of a kind are not one block")
	}
	if s, u := got[4].([]uint64), got[9].([]uint64); unsafe.Pointer(&u[0]) != unsafe.Add(unsafe.Pointer(&s[0]), 3*unsafe.Sizeof(s[0])) {
		t.Error("the slices of a kind are not one backing array")
	}
	if again, _ := AppendValues(nil, got); string(again) != string(b) {
		t.Error("the values read back encode to different bytes")
	}
}

// TestValuesRefused: a type without a codec fails the encoder; a kind
// without one, and counts the remaining bytes cannot hold, fail the reader
// before it allocates.
func TestValuesRefused(t *testing.T) {
	if _, err := AppendValues(nil, []any{1, 2.5}); err == nil || !strings.Contains(err.Error(), "float64") {
		t.Errorf("AppendValues of a float64 = %v, want a no-codec error", err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		n    int
		want string
	}{
		{"unknown kind", []byte{200}, 1, "not registered"},
		{"short kinds", []byte{1}, 2, "bytes wanted"},
		{"pointers past the end", []byte{250, 250, 0}, 2, "elements"},
		{"slice longer than the rest", []byte{251, 0xff, 0xff, 0x03}, 1, "elements"},
	} {
		r := NewReader(c.b)
		if vs := r.Values(c.n); vs != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), c.want) {
			t.Errorf("%s: values %v, err %v; want %q", c.name, vs, r.Err(), c.want)
		}
	}
}
