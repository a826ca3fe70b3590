// Package pub is the fixture's public package.
package pub

import "fixture/internal/lib"

// Thing is a public alias: its methods are reachable from outside.
type Thing = lib.Thing

// Run runs the library.
func Run() int { return lib.Run() }
