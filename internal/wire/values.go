package wire

import "fmt"

// Variable values and queued message payloads are dynamically typed. In a
// snapshot file each value is named by a kind byte, and each kind has a
// codec the value's defining package registers at start-up. A kind is part
// of the file format: it is never reused for another type. Kind 0 is the
// nil value.
const (
	KindInt    byte = 1
	KindString byte = 2
	KindUint64 byte = 3

	KindBody     byte = 16 // barneshut *Body
	KindCell     byte = 17 // barneshut *Cell
	KindRootInfo byte = 18 // barneshut rootInfo
	KindKeys     byte = 19 // bitonic []int32
	KindBlock    byte = 20 // matmul block
)

// codec encodes and decodes every value of one kind in a list of values:
// those whose kind byte in kinds is k, in list order.
type codec interface {
	match(v any) bool
	appendAll(b []byte, vs []any, kinds []byte, k byte) []byte
	readAll(r *Reader, vs []any, kinds []byte, k byte, n int)
}

// codecs holds the registered codec of each kind, and registered the
// registered kinds in registration order. Both are filled by init
// functions only.
var (
	codecs     [256]codec
	registered []byte
)

func register(kind byte, c codec) {
	if kind == 0 || codecs[kind] != nil {
		panic(fmt.Sprintf("wire: value kind %d registered twice", kind))
	}
	codecs[kind] = c
	registered = append(registered, kind)
}

// RegisterPointer registers the codec of *T values: enc appends a value,
// dec reads one into place and size is the least number of bytes a value
// takes. The values of a list are decoded into one block of T, and handed
// out by address.
func RegisterPointer[T any](kind byte, size int, enc func([]byte, *T) []byte, dec func(*Reader, *T)) {
	register(kind, ptrCodec[T]{size, enc, dec})
}

// RegisterValue registers the codec of T values; see RegisterPointer.
func RegisterValue[T any](kind byte, size int, enc func([]byte, T) []byte, dec func(*Reader) T) {
	register(kind, valCodec[T]{size, enc, dec})
}

// RegisterSlice registers the codec of S values, slices of elements that
// enc writes in exactly size bytes. The slices of a list are carved from
// one backing array.
func RegisterSlice[S ~[]E, E any](kind byte, size int, enc func([]byte, E) []byte, dec func(*Reader) E) {
	register(kind, sliceCodec[S, E]{size, enc, dec})
}

func init() {
	RegisterValue(KindInt, 1, AppendInt, (*Reader).Int)
	RegisterValue(KindString, 1, func(b []byte, s string) []byte {
		return append(AppendUvarint(b, uint64(len(s))), s...)
	}, func(r *Reader) string { return string(r.Bytes(r.Len(1))) })
	RegisterValue(KindUint64, 1, AppendUvarint, (*Reader).Uvarint)
}

// AppendValues appends vs: one kind byte a value, then the values of each
// kind present, ascending by kind, in list order. It fails on a value of a
// type no package registered.
func AppendValues(b []byte, vs []any) ([]byte, error) {
	start := len(b)
	var count [256]int
	last := byte(0)
	for i, v := range vs {
		k := byte(0)
		if v != nil {
			if last != 0 && codecs[last].match(v) {
				k = last
			} else {
				for _, c := range registered {
					if codecs[c].match(v) {
						k = c
						break
					}
				}
				if k == 0 {
					return b[:start], fmt.Errorf("value %d is a %T, which has no snapshot codec", i, v)
				}
				last = k
			}
		}
		b = append(b, k)
		count[k]++
	}
	ks := b[start:len(b):len(b)]
	for k := 1; k < len(count); k++ {
		if count[k] > 0 {
			b = codecs[k].appendAll(b, vs, ks, byte(k))
		}
	}
	return b, nil
}

// Values reads n values that AppendValues wrote. A kind no package
// registered is an error.
func (r *Reader) Values(n int) []any {
	ks := r.Bytes(n)
	if r.err != nil || n == 0 {
		return nil
	}
	var count [256]int
	for _, k := range ks {
		count[k]++
	}
	for k := 1; k < len(count); k++ {
		if count[k] > 0 && codecs[k] == nil {
			r.fail("value kind %d is not registered", k)
			return nil
		}
	}
	vs := make([]any, n)
	for k := 1; k < len(count) && r.err == nil; k++ {
		if count[k] > 0 {
			codecs[k].readAll(r, vs, ks, byte(k), count[k])
		}
	}
	if r.err != nil {
		return nil
	}
	return vs
}

type ptrCodec[T any] struct {
	size int
	enc  func([]byte, *T) []byte
	dec  func(*Reader, *T)
}

func (c ptrCodec[T]) match(v any) bool {
	p, ok := v.(*T)
	return ok && p != nil
}

func (c ptrCodec[T]) appendAll(b []byte, vs []any, kinds []byte, k byte) []byte {
	for i, kk := range kinds {
		if kk == k {
			b = c.enc(b, vs[i].(*T))
		}
	}
	return b
}

func (c ptrCodec[T]) readAll(r *Reader, vs []any, kinds []byte, k byte, n int) {
	if !r.fits(n, c.size) {
		return
	}
	blk := make([]T, n)
	for i, kk := range kinds {
		if kk == k {
			c.dec(r, &blk[0])
			vs[i], blk = &blk[0], blk[1:]
		}
	}
}

type valCodec[T any] struct {
	size int
	enc  func([]byte, T) []byte
	dec  func(*Reader) T
}

func (c valCodec[T]) match(v any) bool {
	_, ok := v.(T)
	return ok
}

func (c valCodec[T]) appendAll(b []byte, vs []any, kinds []byte, k byte) []byte {
	for i, kk := range kinds {
		if kk == k {
			b = c.enc(b, vs[i].(T))
		}
	}
	return b
}

func (c valCodec[T]) readAll(r *Reader, vs []any, kinds []byte, k byte, n int) {
	if !r.fits(n, c.size) {
		return
	}
	for i, kk := range kinds {
		if kk == k {
			vs[i] = c.dec(r)
		}
	}
}

// sliceCodec writes the lengths of a list's slices first, then their
// elements, so the reader sizes the backing array before filling it.
type sliceCodec[S ~[]E, E any] struct {
	size int
	enc  func([]byte, E) []byte
	dec  func(*Reader) E
}

func (c sliceCodec[S, E]) match(v any) bool {
	_, ok := v.(S)
	return ok
}

func (c sliceCodec[S, E]) appendAll(b []byte, vs []any, kinds []byte, k byte) []byte {
	for i, kk := range kinds {
		if kk == k {
			b = AppendUvarint(b, uint64(len(vs[i].(S))))
		}
	}
	for i, kk := range kinds {
		if kk == k {
			for _, e := range vs[i].(S) {
				b = c.enc(b, e)
			}
		}
	}
	return b
}

func (c sliceCodec[S, E]) readAll(r *Reader, vs []any, kinds []byte, k byte, n int) {
	lens := *r // reads the lengths a second time, as the slices are carved
	total := 0
	for range n {
		total += r.Len(c.size)
	}
	if !r.fits(total, c.size) {
		return
	}
	backing := make([]E, total)
	for i, kk := range kinds {
		if kk != k {
			continue
		}
		l := lens.Len(c.size)
		s := S(backing[:l:l])
		backing = backing[l:]
		for j := range s {
			s[j] = c.dec(r)
		}
		vs[i] = s
	}
}
