package matmul

import "diva/internal/wire"

// Matrix blocks live in machine variables and inbox payloads, so a
// snapshot of a matmul-warmed machine carries them (diva/snapstore).
func init() {
	wire.RegisterSlice[block](wire.KindBlock, 1, wire.AppendInt32, (*wire.Reader).Int32)
}
