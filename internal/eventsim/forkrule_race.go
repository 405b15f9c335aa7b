//go:build race

package eventsim

// minForkEvents is 1 under the race detector: every window with two or
// more busy shards forks, however little it holds, so the sharded tests
// keep running shards on several goroutines (forkrule.go has the value
// other builds use and how it was sized).
const minForkEvents = 1
