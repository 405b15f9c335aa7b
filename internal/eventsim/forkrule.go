//go:build !race

package eventsim

// minForkEvents is the least work, in events queued on a window's busy
// shards, for which runWindow shares the shards among goroutines.
//
// It is a fork+join cost over a per-event cost, read on a 2-core Xeon VM
// (Go 1.24) in the 1,000-node steady state on 8 shards, where a window
// holds 14.7 events: one goroutine ran a window in 6.3 µs median (430 ns
// an event), two in 12 µs, so a fork costs about 5.6 µs, 13 events'
// work. Two goroutines at best halve a window, so a fork pays only past
// twice that, 26 events; 32 leaves room for the imbalance of a few
// shards with uneven queues.
//
// The race build forks at 1 instead (forkrule_race.go), so that the race
// detector still sees the sharded tests' windows run in parallel.
const minForkEvents = 32
