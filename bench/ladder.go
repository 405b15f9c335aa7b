package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/eventsim"
	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// The subtraction ladder attributes the wall time of steady state to the
// layers of the simulated stack. Four rungs run the same liveness-ping
// pattern — per overlay link and ping period: a timer fires and sends a
// ping, the ping is delivered and answered, the ack is delivered, the
// timer fires again at the ack deadline and is re-armed for the rest of
// the period — each rung adding one layer and built only from exported
// constructors:
//
//	1  eventsim alone: the timers and bare scheduled events
//	2  + simnet: a bare Net, the same timers through Env.After, echo handlers
//	3  + overlay: a cluster with no groups
//	4  + core: the same cluster with groups
//
// Nanoseconds per ping cycle at each rung, layer cost = difference. The
// link set of rungs 1 and 2 is the overlay's own, read from rung 3.

// The rungs below the overlay ping at the overlay's own rates.
var (
	pingInterval = overlay.DefaultConfig().PingInterval
	pingTimeout  = overlay.DefaultConfig().PingTimeout
)

func microLadder(r *run) {
	n := micro.ladderNodes
	opts := simnet.DefaultOptions()
	build := func() *cluster.Cluster {
		return cluster.New(cluster.Options{N: n, Seed: r.seed, SimOptions: &opts})
	}
	// A rung advances its simulation by d and returns the ping cycles
	// that took; for the cluster rungs a cycle is a ping sent.
	clusterRung := func(c *cluster.Cluster) func(time.Duration) float64 {
		return func(d time.Duration) float64 {
			pings0, _ := c.Telemetry.Value("overlay_pings_sent_total")
			c.Sim.RunFor(d)
			pings, _ := c.Telemetry.Value("overlay_pings_sent_total")
			return float64(pings - pings0)
		}
	}

	bare := build()
	links := make([][]int, n) // node -> neighbour node indices
	index := make(map[transport.Addr]int, n)
	for i, nd := range bare.Nodes {
		index[nd.Addr] = i
	}
	for i, nd := range bare.Nodes {
		for _, nb := range nd.Overlay.Neighbors() {
			links[i] = append(links[i], index[nb.Addr])
		}
	}
	full := build()
	createGroups(r, full, pickGroups(rand.New(rand.NewSource(r.seed)), n, n/8, groupSize))
	net, simnetRung := ladderSimnet(r.seed, bare, links)
	rungs := []func(time.Duration) float64{ladderEventsim(r.seed, links), simnetRung, clusterRung(bare), clusterRung(full)}

	// Every rung warms up, then the rungs take turns: the cheapest of a
	// rung's rounds is its cost, which keeps a burst of noise on one
	// round from showing up as a negative layer.
	var ns [4]float64
	for i, rung := range rungs {
		rung(2 * time.Minute)
		ns[i] = math.Inf(1)
	}
	sent0, mallocs0 := net.Sent(), mallocs()
	for round := 0; round < micro.ladderRounds; round++ {
		for i, rung := range rungs {
			if i == 1 && round == 0 {
				sent0, mallocs0 = net.Sent(), mallocs()
			}
			t := time.Now()
			cycles := rung(micro.ladderWindow)
			ns[i] = min(ns[i], float64(time.Since(t))/cycles)
			if i == 1 && round == 0 {
				r.layer["simnet.allocs_per_msg"] = float64(mallocs()-mallocs0) / float64(net.Sent()-sent0)
			}
		}
	}
	r.layer["ladder.ns_per_ping_cycle"] = ns[3]
	r.layer["eventsim.ns_per_ping_cycle"] = ns[0]
	r.layer["simnet.ns_per_ping_cycle"] = ns[1] - ns[0]
	r.layer["overlay.ns_per_ping_cycle"] = ns[2] - ns[1]
	r.layer["core.ns_per_ping_cycle"] = ns[3] - ns[2]
}

// ladderEventsim is rung 1: per link one two-phase timer plus two chained
// bare events standing in for the ping and ack deliveries.
func ladderEventsim(seed int64, links [][]int) func(time.Duration) float64 {
	sim := eventsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cycles := 0
	const hop = 60 * time.Millisecond
	for _, nbs := range links {
		for range nbs {
			var tm *eventsim.Timer
			awaiting := false
			ackArrives := func() {}
			pingArrives := func() { sim.Schedule(hop, ackArrives) }
			tm = sim.After(time.Duration(rng.Int63n(int64(pingInterval))), func() {
				if awaiting {
					awaiting = false
					tm.Reset(pingInterval - pingTimeout)
					return
				}
				cycles++
				sim.Schedule(hop, pingArrives)
				awaiting = true
				tm.Reset(pingTimeout)
			})
		}
	}
	return func(d time.Duration) float64 {
		cycles = 0
		sim.RunFor(d)
		return float64(cycles)
	}
}

// ladderPing and ladderAck are rung 2's messages: pooled records like the
// overlay's own ping pair, so the rung allocates what simnet allocates.
type ladderPing struct {
	transport.Body
	Seq uint64
}

type ladderAck struct {
	transport.Body
	Seq uint64
}

var (
	ladderPings = sync.Pool{New: func() any { return new(ladderPing) }}
	ladderAcks  = sync.Pool{New: func() any { return new(ladderAck) }}
)

func (m *ladderPing) Release() { *m = ladderPing{}; ladderPings.Put(m) }
func (m *ladderAck) Release()  { *m = ladderAck{}; ladderAcks.Put(m) }

// ladderSimnet is rung 2: a bare Net over rung 3's topology and attach
// points; every node answers a ping with an ack, and per link the same
// two-phase timer as the overlay's, armed through Env.After.
func ladderSimnet(seed int64, c *cluster.Cluster, links [][]int) (*simnet.Net, func(time.Duration) float64) {
	sim := eventsim.New(seed)
	net := simnet.New(sim, c.Topo, simnet.DefaultOptions())
	rng := rand.New(rand.NewSource(seed))
	envs := make([]transport.Env, len(c.Nodes))
	for i, nd := range c.Nodes {
		envs[i] = net.AddNode(nd.Addr, nd.Router)
	}
	cycles := 0
	for i, nd := range c.Nodes {
		env := envs[i]
		net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
			if p, ok := msg.(*ladderPing); ok {
				ack := ladderAcks.Get().(*ladderAck)
				ack.Seq = p.Seq
				env.Send(from, ack)
			}
		})
		for _, nb := range links[i] {
			to := c.Nodes[nb].Addr
			var tm transport.Timer
			awaiting := false
			var seq uint64
			tm = env.After(time.Duration(rng.Int63n(int64(pingInterval))), func() {
				if awaiting {
					awaiting = false
					transport.ResetTimer(tm, pingInterval-pingTimeout)
					return
				}
				cycles++
				seq++
				ping := ladderPings.Get().(*ladderPing)
				ping.Seq = seq
				env.Send(to, ping)
				awaiting = true
				transport.ResetTimer(tm, pingTimeout)
			})
		}
	}
	return net, func(d time.Duration) float64 {
		cycles = 0
		sim.RunFor(d)
		return float64(cycles)
	}
}
