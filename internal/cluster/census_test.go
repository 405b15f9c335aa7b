package cluster

import (
	"strings"
	"testing"
	"time"

	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// censusCheckTimeout is core's checkTimeout: how long a link may go
// without a matching ping before FUSE fails every group riding it.
const censusCheckTimeout = 90 * time.Second

// LinkCensus counts the links a deployment checks one way only: ordered
// pairs (p, d) of up nodes where p's routing tables hold d and d's do not
// hold p. p pings d every interval, but d's acks carry no payload and d
// sends p no pings of its own, so p's FUSE deadline for the link is never
// refreshed: once such a pair has lasted CheckTimeout, every group riding
// the link fails at p although both ends are up. The census reads the
// tables at the instants a test calls Sample (every virtual minute in the
// tests below), so a pair's duration is known to a sampling period.
type LinkCensus struct {
	c       *Cluster
	every   time.Duration // the period the caller samples at
	last    time.Duration // the previous sample's instant
	runs    map[[2]int][]censusRun
	peak    int // the most pairs lasting past CheckTimeout at one sample
	samples int
}

// censusRun is a stretch of consecutive samples at which a pair was
// asymmetric, by the first and last sample's instants.
type censusRun struct{ first, last time.Duration }

// NewLinkCensus returns a census of c that the caller samples every
// period.
func NewLinkCensus(c *Cluster, every time.Duration) *LinkCensus {
	return &LinkCensus{c: c, every: every, last: -1, runs: make(map[[2]int][]censusRun)}
}

// Sample reads every up node's tables at the present instant.
func (lc *LinkCensus) Sample() {
	c, now := lc.c, lc.c.Sim.Elapsed()
	byAddr := make(map[transport.Addr]int, len(c.Nodes))
	held := make([]map[transport.Addr]bool, len(c.Nodes))
	for i, n := range c.Nodes {
		byAddr[n.Addr] = i
		if c.Crashed(i) || c.Net.Detached(n.Addr) {
			continue
		}
		held[i] = make(map[transport.Addr]bool)
		for _, r := range n.Overlay.Neighbors() {
			held[i][r.Addr] = true
		}
	}
	lasting := 0
	for p, hp := range held {
		for addr := range hp {
			d, ok := byAddr[addr]
			if !ok || held[d] == nil || held[d][c.Nodes[p].Addr] {
				continue
			}
			key := [2]int{p, d}
			rs := lc.runs[key]
			if k := len(rs); k > 0 && rs[k-1].last == lc.last {
				rs[k-1].last = now
			} else {
				rs = append(rs, censusRun{now, now})
			}
			lc.runs[key] = rs
			if now-rs[len(rs)-1].first > censusCheckTimeout {
				lasting++
			}
		}
	}
	lc.peak = max(lc.peak, lasting)
	lc.last = now
	lc.samples++
}

// lasting returns how many distinct pairs were asymmetric for longer
// than CheckTimeout at some sample, and the most at one sample.
func (lc *LinkCensus) lasting() (pairs, peak int) {
	for _, rs := range lc.runs {
		for _, r := range rs {
			if r.last-r.first > censusCheckTimeout {
				pairs++
				break
			}
		}
	}
	return pairs, lc.peak
}

// timeouts counts the FUSE link timeouts in events, and how many of them
// an asymmetric pair explains. core traces a link timeout as one
// "trigger" event per group on the link, detail "link-timeout <neighbor>",
// so a timeout is a distinct (instant, node, neighbor); the events must
// come from a run traced at TraceProto. A timeout of p's link to d at t
// is explained when (p, d) was asymmetric at every sample from
// t - CheckTimeout to the last sample before t.
func (lc *LinkCensus) timeouts(events []telemetry.Event) (total, explained int) {
	byName := make(map[string]int, len(lc.c.Nodes))
	for i := range lc.c.Nodes {
		byName[lc.c.Nodes[i].Ref().Name] = i
	}
	type timeout struct {
		at   time.Duration
		p, d int
	}
	seen := make(map[timeout]bool)
	for _, ev := range events {
		neighbor, ok := strings.CutPrefix(ev.Detail, "link-timeout ")
		if ev.Kind != "trigger" || !ok {
			continue
		}
		to := timeout{ev.At, byName[ev.Node], byName[neighbor]}
		if seen[to] {
			continue
		}
		seen[to] = true
		total++
		for _, r := range lc.runs[[2]int{to.p, to.d}] {
			if r.first <= to.at-censusCheckTimeout && r.last > to.at-lc.every {
				explained++
				break
			}
		}
	}
	return total, explained
}

// Log writes the census's counts, with the link timeouts of events.
func (lc *LinkCensus) Log(t testing.TB, events []telemetry.Event) {
	t.Helper()
	pairs, peak := lc.lasting()
	total, explained := lc.timeouts(events)
	t.Logf("%d samples: %d ordered pairs checked one way only for longer than CheckTimeout (at most %d at one sample); %d link timeouts, %d of them on such a pair",
		lc.samples, pairs, peak, total, explained)
	if lc.samples == 0 || explained > total {
		t.Errorf("census of %d samples explains %d of %d timeouts", lc.samples, explained, total)
	}
}

// TestAsymmetricLinksUnderChurn takes the census each virtual minute of
// TestChurnHeapStaysFlat's 160-minute churn, traced at TraceProto, and
// logs how many links churn leaves checked one way only and how many
// link timeouts they explain.
func TestAsymmetricLinksUnderChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("a 160-minute, 400-node measurement; it runs without -race")
	}
	c := newChurnShape()
	c.Telemetry.EnableTrace(telemetry.TraceProto)
	lc := NewLinkCensus(c, time.Minute)
	runChurnShape(c, 160, func(int, int) { lc.Sample() })
	lc.Log(t, c.Telemetry.Events())
}
