//go:build race

package tcpnet

// raceEnabled gates the allocation pins: race-detector instrumentation
// itself allocates, so the allocation tests assert only under -race=off.
const raceEnabled = true
