package cluster_test

import (
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/scenario"
	"fuse/internal/telemetry"
)

// TestAsymmetricLinksOnChurnPreset takes the link census each virtual
// minute of the churn preset, traced at TraceProto, and logs how many
// links its churn leaves checked one way only and how many link timeouts
// they explain. The preset's own audit must still pass.
func TestAsymmetricLinksOnChurnPreset(t *testing.T) {
	c, script, err := scenario.BuildPreset("churn", scenario.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Telemetry.EnableTrace(telemetry.TraceProto)
	e, err := scenario.Start(c, script)
	if err != nil {
		t.Fatal(err)
	}
	lc := cluster.NewLinkCensus(c, time.Minute)
	for left := time.Duration(script.Duration); left > 0; left -= time.Minute {
		c.Sim.RunFor(min(left, time.Minute))
		lc.Sample()
	}
	if r := e.Report(); !r.OK() {
		t.Fatalf("churn preset failed its audit: %+v", r)
	}
	lc.Log(t, c.Telemetry.Events())
}
