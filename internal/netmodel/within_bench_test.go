package netmodel

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkWithin times one intra-AS pass from a random router of the
// paper-scale topology, so nearly every call lays a new AS out first:
//
//	go test -run '^$' -bench BenchmarkWithin ./internal/netmodel
func BenchmarkWithin(b *testing.B) {
	t := Generate(PaperScaleConfig(1))
	sw := t.newSweep()
	rng := rand.New(rand.NewPCG(1, 2))
	n := t.NumRouters()
	for b.Loop() {
		sw.within(t, RouterID(rng.IntN(n)))
	}
}
