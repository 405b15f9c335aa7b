//go:build race

package cluster

// raceEnabled gates the memory pins: race-detector instrumentation
// changes the heap, so they assert only under -race=off.
const raceEnabled = true
