// Package experiments contains one driver per table/figure in the
// paper's evaluation (§7), plus the ablation studies (the §5.1 liveness
// topologies, the §2 SWIM contrast, the §4 SVTree group sizes) and two
// scale drivers that go beyond the paper's cluster: manygroups
// (thousands of concurrent groups on a small overlay - the piggyback
// cost claim pushed to its limit) and paperscale (the §7.3 simulation at
// its full 16,000-node size, with route warmup and a crash phase that
// checks one-way agreement at scale). Each driver builds its simulated
// deployment with cluster.New, runs the paper's workload, and returns
// the same rows/series the paper reports, both as formatted lines and as
// machine-readable metrics (which the benchmarks and tests assert
// against). Drivers that fault FUSE groups do it with a scenario.Script,
// so the engine's exactly-once audit checks every such run. The
// baselines (livetopo, swim) run on an unassembled cluster: their
// service replaces each node's handler, and the idle overlay and FUSE
// layers underneath never run. README.md maps every driver to its paper
// figure.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Params scales an experiment.
type Params struct {
	// Nodes is the overlay size; 0 means the experiment's paper default
	// (400 for cluster experiments).
	Nodes int
	// Seed drives all randomness.
	Seed int64
	// Short trims workload sizes and run times for use under `go test`
	// and quick benchmarks.
	Short bool
	// Groups overrides the number of FUSE groups for drivers with a
	// group-count workload axis (paperscale, manygroups); 0 means the
	// driver's default.
	Groups int
	// Window overrides the steady-state measurement window for drivers
	// that have one; 0 means the driver's default.
	Window time.Duration
	// Workers is cluster.Options.Workers for the drivers built on
	// paperCluster (fig6-9, steady, manygroups, paperscale) and for
	// churn's presets: 0 runs every node on one event shard, >= 1 that
	// many goroutines over the default shard count. Results are identical
	// across worker counts >= 1; only wall-clock throughput changes. The
	// other drivers run on one shard.
	Workers int
}

func (p Params) nodes(def int) int {
	if p.Nodes > 0 {
		return p.Nodes
	}
	return def
}

// Result is an experiment's output.
type Result struct {
	Name    string
	Header  string
	Lines   []string
	Metrics map[string]float64
}

func newResult(name, header string) *Result {
	return &Result{Name: name, Header: header, Metrics: make(map[string]float64)}
}

func (r *Result) addLine(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) metric(key string, v float64) { r.Metrics[key] = v }

// String renders the result like the paper's tables.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n%s\n", r.Name, r.Header)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(p Params) (*Result, error)

var registry = map[string]Runner{
	"churn":          ChurnReliability,
	"fig6":           Fig6RPCLatency,
	"fig7":           Fig7GroupCreation,
	"fig8":           Fig8SignaledNotification,
	"fig9":           Fig9CrashNotification,
	"fig10":          Fig10Churn,
	"fig11":          Fig11RouteLoss,
	"fig12":          Fig12FalsePositives,
	"steady":         SteadyStateLoad,
	"manygroups":     ManyGroupsSteadyState,
	"paperscale":     PaperScaleSimulation,
	"paperscale100k": PaperScale100k,
	"svtree":         SVTreeGroupSizes,
	"swimcmp":        SwimComparison,
	"ablation":       AblationTopologies,
}

// Names lists all registered experiments, sorted.
func Names() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, p Params) (*Result, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(p)
}
