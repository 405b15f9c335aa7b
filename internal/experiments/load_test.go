package experiments

import (
	"testing"
	"time"

	"fuse/internal/cluster"
)

// TestMetricPanicsOnUnknownName: a rate read from a metric the registry
// does not have is a driver bug, never a silent zero.
func TestMetricPanicsOnUnknownName(t *testing.T) {
	c := cluster.New(cluster.Options{N: 4, Seed: 1})
	c.Sim.RunFor(time.Minute)
	if n := metric(c, "simnet_messages_sent_total"); n != int64(c.Net.Sent()) {
		t.Fatalf("simnet_messages_sent_total = %d, network sent %d", n, c.Net.Sent())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unknown metric read without a panic")
		}
	}()
	metric(c, "no_such_metric_total")
}
