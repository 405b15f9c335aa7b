package experiments_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"fuse/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/short-tables.golden from this run")

// TestShortTablesGolden pins the printed table of every driver at Short,
// seed 1: a refactor of a driver must leave each virtual-time line as it
// was. A line with a wall-clock reading (it says "wall") is masked;
// paperscale100k is left out for its size (it is paperscale with other
// defaults).
func TestShortTablesGolden(t *testing.T) {
	const golden = "testdata/short-tables.golden"
	var b strings.Builder
	for _, name := range experiments.Names() {
		if name == "paperscale100k" {
			continue
		}
		r, err := experiments.Run(name, experiments.Params{Seed: 1, Short: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString("=== " + name + " ===\n" + r.Header + "\n")
		for _, l := range r.Lines {
			if strings.Contains(l, "wall") {
				l = "<wall-clock line>"
			}
			b.WriteString(l + "\n")
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test ./internal/experiments -run TestShortTablesGolden -update records it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden has %d", len(gl), len(wl))
	}
}
