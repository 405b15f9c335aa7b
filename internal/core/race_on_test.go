//go:build race

package core

// raceEnabled gates the allocation pin: race-detector instrumentation
// itself allocates, so it asserts only under -race=off.
const raceEnabled = true
