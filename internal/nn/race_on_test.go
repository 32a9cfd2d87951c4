//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops items, so the reduced-precision kernels'
// pooled scratch cannot hold a 0 allocs/op bound.
const raceEnabled = true
