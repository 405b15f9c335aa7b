package simnet

import "fuse/internal/transport"

// RaceEnabled tells the external tests whether the race detector is on.
const RaceEnabled = raceEnabled

// SetWireRoundTrip installs f as every delivery's wire round trip (see
// wireRoundTrip) and returns the function that removes it. No simulation
// may be running while either is called.
func SetWireRoundTrip(f func(transport.Message) transport.Message) (restore func()) {
	wireRoundTrip = f
	return func() { wireRoundTrip = nil }
}
