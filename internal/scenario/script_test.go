package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fuse/internal/cluster"
)

// TestPresetRoundTrip pins the acceptance criterion for scripts-as-data:
// every built-in preset, saved to JSON and loaded back, replays to a
// byte-identical trace for the same seed. Anything the JSON layer drops
// or renames shows up as a trace diff.
func TestPresetRoundTrip(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, s, err := BuildPreset(name, Params{Seed: 11, Short: true})
			if err != nil {
				t.Fatalf("BuildPreset: %v", err)
			}
			want, err := Run(c, s)
			if err != nil {
				t.Fatalf("direct run: %v", err)
			}

			data, err := s.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			loaded, err := Load(data)
			if err != nil {
				t.Fatalf("Load: %v\nscript:\n%s", err, data)
			}
			got, err := Run(clusterFor(loaded), loaded)
			if err != nil {
				t.Fatalf("replayed run: %v", err)
			}

			if got.Trace != want.Trace {
				t.Errorf("trace diverged after JSON round-trip\nscript:\n%s", data)
			}
			if got.Stats() != want.Stats() {
				t.Errorf("stats diverged after JSON round-trip:\ndirect:   %sreplayed: %s", want.Stats(), got.Stats())
			}

			// The canonical form is byte-stable: marshal(load(marshal(x)))
			// == marshal(x), so counterexample files diff cleanly.
			data2, err := loaded.Marshal()
			if err != nil {
				t.Fatalf("re-Marshal: %v", err)
			}
			if string(data) != string(data2) {
				t.Errorf("marshal not byte-stable:\nfirst:\n%s\nsecond:\n%s", data, data2)
			}
		})
	}
}

// TestScriptValidationNamesFields checks that every class of validation
// error names the offending field, so a typo'd schedule points at itself.
// Event cases are JSON text, so they go through the same decoding a
// scenario file does.
func TestScriptValidationNamesFields(t *testing.T) {
	base := func() *Script {
		return &Script{
			Name:     "v",
			Nodes:    16,
			Seed:     1,
			Groups:   []GroupSpec{{Root: 0, Members: []int{1, 2}}},
			Duration: Duration(10 * time.Minute),
		}
	}
	event := func(js string) func(sf *Script) {
		return func(sf *Script) {
			if err := json.Unmarshal([]byte("["+js+"]"), &sf.Events); err != nil {
				t.Fatalf("event %s does not decode: %v", js, err)
			}
		}
	}

	cases := []struct {
		name string
		mut  func(sf *Script)
		want string
	}{
		{"nodes too small", func(sf *Script) { sf.Nodes = 1 }, "nodes: 1"},
		{"no duration", func(sf *Script) { sf.Duration = 0 }, "duration: must be positive"},
		{"no groups", func(sf *Script) { sf.Groups = nil }, "groups: at least one group"},
		{"root out of range", func(sf *Script) { sf.Groups[0].Root = 40 }, "groups[0].root: 40 out of range [0, 16)"},
		{"member out of range", func(sf *Script) { sf.Groups[0].Members = []int{1, 99} }, "groups[0].members[1]: 99 out of range"},
		{"duplicate member", func(sf *Script) { sf.Groups[0].Members = []int{1, 1} }, "groups[0].members[1]: node 1 listed twice"},
		{"store outside group", func(sf *Script) { sf.Groups[0].Stores = []int{5} }, "groups[0].stores[0]: node 5 is not in the group"},
		{"expect_fail out of range", func(sf *Script) { sf.ExpectFail = []int{3} }, "expect_fail[0]: group 3 out of range"},
		{"conflicting expectations", func(sf *Script) { sf.ExpectFail = []int{0}; sf.ExpectSurvive = []int{0} }, "expect_survive[0]: group 0 cannot both fail and survive"},
		{"missing do", event(`{}`), "events[0].do: required field missing"},
		{"unknown do", event(`{"do": "explode"}`), `events[0].do: unknown action "explode"`},
		{"crash without node", event(`{"do": "crash"}`), "events[0].node: required field missing"},
		{"crash with null node", event(`{"do": "crash", "node": null}`), "events[0].node: required field missing"},
		{"crash node out of range", event(`{"do": "crash", "node": 40}`), "events[0].node: 40 out of range [0, 16)"},
		{"event past duration", event(`{"at": "99m", "do": "crash", "node": 1}`), "events[0].at: 1h39m0s is past the script duration"},
		{"restart bootstrapping itself", event(`{"do": "restart", "node": 1, "bootstrap": 1}`), "events[0].bootstrap: a node cannot bootstrap through itself"},
		{"recover without store", event(`{"do": "restart", "node": 1, "bootstrap": 0, "recover": true}`), "events[0].recover: node 1 has no store"},
		{"partition one side", event(`{"do": "partition", "sides": [[0, 1]]}`), "events[0].sides: need at least two sides"},
		{"partition overlapping sides", event(`{"do": "partition", "sides": [[0, 1], [1, 2]]}`), "events[0].sides[1][0]: node 1 appears on more than one side"},
		{"block same node", event(`{"do": "block", "a": 3, "b": 3}`), "events[0].b: a and b must differ"},
		{"loss out of range", event(`{"do": "loss", "a": 3, "b": 4, "loss": 1.5}`), "events[0].loss: 1.5 out of range [0, 1]"},
		{"ramp without over", event(`{"do": "loss-ramp", "a": 3, "b": 4, "from": 0, "to": 1}`), "events[0].over: must be positive"},
		{"signal outside group", event(`{"do": "signal", "node": 9, "group": 0}`), "events[0].node: node 9 is not in group 0"},
		{"signal unknown group", event(`{"do": "signal", "node": 1, "group": 7}`), "events[0].group: 7 out of range [0, 1)"},
		{"churn range overflow", event(`{"do": "churn-start", "first": 10, "count": 10, "bootstrap": 0, "mean_dwell": "2m"}`), "events[0].count: churn range [10, 20) exceeds 16 nodes"},
		{"churn bootstrap inside range", event(`{"do": "churn-start", "first": 10, "count": 4, "bootstrap": 12, "mean_dwell": "2m"}`), "events[0].bootstrap: node 12 is inside the churning range"},
		{"second event names its own index", event(`{"do": "heal-all"}, {"do": "stop"}`), "events[1].node: required field missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := base()
			tc.mut(sf)
			err := sf.Validate()
			if err == nil {
				t.Fatalf("validation accepted a broken script")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error does not name the field:\n  got:  %v\n  want substring: %s", err, tc.want)
			}
		})
	}
}

// filled returns a copy of a registered kind's zero value with every
// field set to a distinct, valid, non-zero value for the script kindFile
// builds, so that a field lost or swapped on the way through JSON shows
// up under reflect.DeepEqual.
func filled(t *testing.T, zero Action) Action {
	v := reflect.New(reflect.TypeOf(zero)).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Interface().(type) {
		case int:
			f.SetInt(int64(1 + i)) // node indices 1, 2, ...: distinct within one action
		case float64:
			f.SetFloat(0.25 * float64(i))
		case bool:
			f.SetBool(true)
		case Duration:
			f.SetInt(int64(time.Duration(1+i) * time.Minute))
		case [][]int:
			f.Set(reflect.ValueOf([][]int{{3, 4}, {5, 6, 7}}))
		default:
			t.Fatalf("%T.%s: filled() does not know type %s", zero, v.Type().Field(i).Name, f.Type())
		}
	}
	switch a := v.Addr().Interface().(type) {
	case *Signal:
		a.Group = 1 // node 1 is in it
	case *ChurnStart:
		a.First, a.Count = 8, 8 // clear of the bootstrap
	}
	return v.Interface().(Action)
}

// kindFile wraps one action in the script filled() is valid against.
func kindFile(a Action) Script {
	return Script{
		Name:     "kind",
		Nodes:    16,
		Seed:     1,
		Groups:   []GroupSpec{{Root: 0, Members: []int{1, 2}, Stores: []int{1}}, {Root: 3, Members: []int{1, 4}}},
		Events:   []Event{{At: time.Minute, Do: a}},
		Duration: Duration(10 * time.Minute),
	}
}

// TestEveryKindRoundTrips drives the file format from the registry, so a
// kind cannot be registered without surviving marshal -> Load with every
// field intact.
func TestEveryKindRoundTrips(t *testing.T) {
	if len(kinds) != 16 {
		t.Errorf("registry has %d kinds, the failure model has 16", len(kinds))
	}
	types := make(map[reflect.Type]string)
	for _, name := range kindNames() {
		zero := kinds[name]
		if other, dup := types[reflect.TypeOf(zero)]; dup {
			t.Errorf("%T is registered as both %q and %q; Marshal could pick either", zero, other, name)
		}
		types[reflect.TypeOf(zero)] = name
		t.Run(name, func(t *testing.T) {
			want := filled(t, zero)
			data, err := kindFile(want).Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if !strings.Contains(string(data), `"do": "`+name+`"`) {
				t.Errorf("marshalled under another kind:\n%s", data)
			}
			loaded, err := Load(data)
			if err != nil {
				t.Fatalf("Load: %v\n%s", err, data)
			}
			got := loaded.Events
			if len(got) != 1 || got[0].At != time.Minute || !reflect.DeepEqual(got[0].Do, want) {
				t.Errorf("round trip changed the event:\n got: %#v\nwant: %#v\n%s", got, want, data)
			}
			again, err := loaded.Marshal()
			if err != nil || !bytes.Equal(again, data) {
				t.Errorf("marshal not byte-stable (err %v):\nfirst:\n%s\nsecond:\n%s", err, data, again)
			}
		})
	}
}

// TestEveryRequiredFieldIsEnforced deletes, for every registered kind,
// each required key in turn from its JSON: Load must name the missing
// field instead of reading it as index 0.
func TestEveryRequiredFieldIsEnforced(t *testing.T) {
	for _, name := range kindNames() {
		zero := kinds[name]
		typ := reflect.TypeOf(zero)
		for i := 0; i < typ.NumField(); i++ {
			field, opts, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if field == "" {
				t.Errorf("%s.%s has no json tag", typ, typ.Field(i).Name)
			}
			if opts == "omitempty" {
				continue
			}
			t.Run(name+"/"+field, func(t *testing.T) {
				data, err := kindFile(filled(t, zero)).Marshal()
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				var doc map[string]any
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatal(err)
				}
				ev := doc["events"].([]any)[0].(map[string]any)
				if _, ok := ev[field]; !ok {
					t.Fatalf("marshalled event has no %q key:\n%s", field, data)
				}
				delete(ev, field)
				cut, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				want := "events[0]." + field + ": required field missing"
				if _, err := Load(cut); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("Load(%s)\n  got:  %v\n  want substring: %s", cut, err, want)
				}
			})
		}
	}
}

// TestMarshalRejectsUnregisteredAction: a hand-built Script with an
// Action the registry does not know cannot be written out as some other
// kind.
func TestMarshalRejectsUnregisteredAction(t *testing.T) {
	if _, err := kindFile(malformed{}).Marshal(); err == nil || !strings.Contains(err.Error(), "has no JSON encoding") {
		t.Errorf("want a no-JSON-encoding error, got %v", err)
	}
}

// TestReadmeExampleLoads keeps the documented schema honest: the JSON
// block under README "Writing your own scenario" must load, and its
// canonical form must be byte-stable.
func TestReadmeExampleLoads(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Writing your own scenario")
	if !ok {
		t.Fatal(`README.md has no "Writing your own scenario" section`)
	}
	_, block, ok := strings.Cut(section, "```json\n")
	if !ok {
		t.Fatal("the section has no ```json block")
	}
	example, _, ok := strings.Cut(block, "```")
	if !ok {
		t.Fatal("the json block is not closed")
	}
	sf, err := Load([]byte(example))
	if err != nil {
		t.Fatalf("README example does not load: %v\n%s", err, example)
	}
	if len(sf.Events) == 0 || len(sf.Groups) == 0 {
		t.Errorf("README example lost its content: %+v", sf)
	}
	first, err := sf.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	reloaded, err := Load(first)
	if err != nil {
		t.Fatalf("canonical form does not load back: %v\n%s", err, first)
	}
	second, err := reloaded.Marshal()
	if err != nil || !bytes.Equal(first, second) {
		t.Errorf("canonical form of the README example is not byte-stable (err %v):\n%s\nvs\n%s", err, first, second)
	}
	if !reflect.DeepEqual(sf, reloaded) {
		t.Errorf("README example changed across a marshal round trip")
	}
}

// TestLoadRejectsUnknownFields: a misspelled knob must fail loudly, not
// silently fall back to a default and drill the wrong scenario. So must
// latency_bound: every run is held to core.NotificationBound, and no
// script sets a bound of its own.
func TestLoadRejectsUnknownFields(t *testing.T) {
	for key, input := range map[string]string{
		"nodeid": `{
  "name": "typo",
  "nodes": 16,
  "groups": [{"root": 0, "members": [1]}],
  "events": [{"at": "1m0s", "do": "crash", "nodeid": 1}],
  "duration": "10m0s"
}`,
		"latency_bound": `{
  "name": "own-bound",
  "nodes": 16,
  "groups": [{"root": 0, "members": [1]}],
  "events": [{"at": "1m0s", "do": "crash", "node": 1}],
  "duration": "10m0s",
  "latency_bound": "8m0s"
}`,
	} {
		if _, err := Load([]byte(input)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("want unknown-field error mentioning %s, got %v", key, err)
		}
	}
}

// TestLoadRejectsBareDurations: durations are strings, and the error for
// a bare number explains the expected form.
func TestLoadRejectsBareDurations(t *testing.T) {
	_, err := Load([]byte(`{"name": "d", "nodes": 4, "groups": [{"root": 0, "members": [1]}], "duration": 600}`))
	if err == nil || !strings.Contains(err.Error(), `duration must be a string like "90s"`) {
		t.Fatalf("want duration-format error, got %v", err)
	}
}

// TestDeploymentOverrides: a script names its deployment, and changing
// its nodes is the override (fusesim's -nodes). A shrink that breaks the
// script's indices fails validation, and Start holds a script that names
// one size to a cluster of that size.
func TestDeploymentOverrides(t *testing.T) {
	s, err := Load([]byte(`{
  "name": "override",
  "nodes": 16,
  "seed": 3,
  "groups": [{"root": 0, "members": [1, 12]}],
  "events": [{"at": "1m0s", "do": "crash", "node": 12}],
  "duration": "10m0s",
  "expect_fail": [0]
}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	c := cluster.New(cluster.Options{N: 24, Seed: 9})
	want := "scenario script: nodes: 16, but the cluster has 24"
	if _, err := Start(c, s); err == nil || err.Error() != want {
		t.Errorf("Start on a cluster of another size: got %v, want %q", err, want)
	}
	s.Nodes = 24
	if _, err := Start(c, s); err != nil {
		t.Errorf("Start with the nodes override: %v", err)
	}
	s.Nodes = 8
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "12 out of range [0, 8)") {
		t.Errorf("shrinking below the script's indices must fail validation, got %v", err)
	}
}

// clusterFor builds the deployment a script names.
func clusterFor(s Script) *cluster.Cluster {
	return cluster.New(cluster.Options{N: s.Nodes, Seed: s.Seed})
}
