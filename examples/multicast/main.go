// Multicast event delivery over Subscriber/Volunteer trees (§4 of the
// paper) - the application FUSE was invented for.
//
// A 64-node overlay hosts a topic; eight nodes subscribe. Every
// content-forwarding link in the tree is guarded by one FUSE group whose
// members are the link's endpoints plus the overlay nodes it bypasses.
// When a mid-tree subscriber crashes, the groups fire, every holder of
// related state garbage-collects, orphans re-attach, and delivery
// continues - the "garbage collect and retry" design pattern that the
// paper credits with drastically shrinking the state space of the tree
// protocol.
//
// This example drives the internal svtree package over the deterministic
// simulator; it is the in-repo equivalent of the paper's Herald demo.
//
// Run with:
//
//	go run ./examples/multicast
package main

import (
	"fmt"
	"log"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/svtree"
	"fuse/internal/transport"
)

func main() {
	c := cluster.New(cluster.Options{N: 64, Seed: 42})

	svcs := make([]*svtree.Service, len(c.Nodes))
	for i, nd := range c.Nodes {
		svcs[i] = svtree.New(nd.Env, nd.Overlay, nd.Fuse)
		ov, fu, sv := nd.Overlay, nd.Fuse, svcs[i]
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
			if ov.Handle(from, msg) || fu.Handle(from, msg) || sv.Handle(from, msg) {
				return
			}
		})
	}

	const topic = "herald.demo.events"
	subscribers := []int{3, 11, 19, 27, 35, 43, 51, 59}
	received := make(map[int]int)
	for _, s := range subscribers {
		s := s
		svcs[s].Subscribe(topic, func(data any) {
			received[s]++
			fmt.Printf("    node %2d <- %v\n", s, data)
		})
	}
	c.Sim.RunFor(2 * time.Minute)

	groups := 0
	for _, svc := range svcs {
		groups += len(svc.GroupSizes)
	}
	fmt.Printf("tree built: %d subscribers, %d FUSE-guarded content links\n\n", len(subscribers), groups)

	fmt.Println("publishing event #1:")
	svcs[0].Publish(topic, "launch")
	c.Sim.RunFor(time.Minute)

	victim := subscribers[2]
	fmt.Printf("\ncrashing subscriber %d (an interior tree node)...\n", victim)
	c.Crash(victim)
	c.Sim.RunFor(10 * time.Minute) // detection, notification, re-attachment

	fmt.Println("publishing event #2 after repair:")
	svcs[0].Publish(topic, "recovered")
	c.Sim.RunFor(time.Minute)

	for _, s := range subscribers {
		if s == victim {
			continue
		}
		if received[s] != 2 {
			log.Fatalf("subscriber %d received %d of 2 events", s, received[s])
		}
	}
	fmt.Printf("\nall %d surviving subscribers received both events; tree self-repaired via FUSE.\n",
		len(subscribers)-1)
}
