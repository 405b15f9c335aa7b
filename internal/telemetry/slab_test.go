package telemetry_test

import (
	"testing"

	"fuse"
	"fuse/internal/scenario"
	"fuse/internal/telemetry"
)

// TestSlabFitsTheLargestRegistries pins the slab's size to its use: the
// churn preset's registry, after a run, and a live fuse.Start node's each
// take at most a quarter of the slots every lane allocates up front, so
// a few more metrics fit and the slab stays a fraction of a lane's cost.
func TestSlabFitsTheLargestRegistries(t *testing.T) {
	c, script, err := scenario.BuildPreset("churn", scenario.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(c, script); err != nil {
		t.Fatal(err)
	}
	live, err := fuse.Start(fuse.NodeConfig{Name: "slab.live.example.org", Bind: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, reg := range []struct {
		name string
		reg  *telemetry.Registry
	}{{"churn preset", c.Telemetry}, {"fuse.Start node", live.Telemetry()}} {
		used := telemetry.SlotsUsed(reg.reg)
		t.Logf("%s: %d of %d slots", reg.name, used, telemetry.MaxSlots)
		if used == 0 || used > telemetry.MaxSlots/4 {
			t.Errorf("%s uses %d of %d slots, want 1 to a quarter", reg.name, used, telemetry.MaxSlots)
		}
	}
}
