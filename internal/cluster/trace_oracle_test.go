package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/telemetry"
)

// TestVerboseTraceOracle pins the whole observable schedule of a small
// deployment: every ping, ack, neighbour death, install and notice with
// its virtual timestamp, as the verbose trace records them. It was written
// against the per-link ping timers and must keep passing, unedited, under
// any change to how the overlay schedules its liveness checks: such a
// change may move how many simulator events a run costs, never what the
// protocol does or when. It was re-recorded once, when each simulated
// node's random source became a PCG and so drew a different stream:
// 20,582 events (10,230 pings, 10,168 acks, 57 neighbour deaths), 7
// notices.
func TestVerboseTraceOracle(t *testing.T) {
	const want = "9c3b3e18266443b1c62d5133d97acfe90af526c6c96dbf0a2e40e9b1083e5e4e"

	c := cluster.New(cluster.Options{N: 60, Seed: 22})
	c.Telemetry.EnableTrace(telemetry.TraceVerbose)
	notices := 0
	for g := 0; g < 10; g++ {
		root := (g * 7) % 60
		members := []int{(root + 11) % 60, (root + 23) % 60, (root + 37) % 60}
		id, err := c.CreateGroup(root, members...)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		for _, m := range append(members, root) {
			c.Nodes[m].Fuse.RegisterFailureHandler(func(core.Notice) { notices++ }, id)
		}
	}
	c.Sim.RunFor(90 * time.Second)
	c.Crash(11) // a member of group 0
	c.Sim.RunFor(30 * time.Second)
	c.Net.Detach(cluster.AddrOf(30)) // long enough for every neighbour to give up on it
	c.Sim.RunFor(3 * time.Minute)
	c.Net.Rejoin(cluster.AddrOf(30))
	c.Sim.RunFor(5 * time.Minute)

	h := sha256.New()
	if err := c.Telemetry.WriteTrace(h); err != nil {
		t.Fatal(err)
	}
	events := c.Telemetry.Events()
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds["ping"] < 5000 || kinds["ack"] < 5000 || kinds["neighbor-dead"] < 20 || notices == 0 {
		t.Fatalf("the run exercised too little: %v, %d notices", kinds, notices)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("verbose trace sha256 = %s, want %s (%d events: %v, %d notices)", got, want, len(events), kinds, notices)
	}
}
