package bitonic

import "diva/internal/wire"

// Key slices live in machine variables and hand-optimized message
// payloads, so a snapshot of a bitonic-warmed machine carries them
// (diva/snapstore).
func init() {
	wire.RegisterSlice[[]int32](wire.KindKeys, 1, wire.AppendInt32, (*wire.Reader).Int32)
}
