package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"time"

	"fuse/internal/cluster"
)

// Scenario scripts as data: ScriptFile is the JSON form of a complete
// scenario - cluster sizing (nodes, seed) plus the Script itself - so
// failure drills can be written, versioned, and replayed without
// recompiling, and fuzz-found counterexamples are plain files anyone can
// rerun with `fusesim -scenario <file.json>`. Every Action round-trips:
// ToFile(Load(Marshal(x))) preserves the schedule exactly, and because
// the engine is deterministic, the loaded copy replays to a
// byte-identical trace for the same seed.
//
// The format (README.md documents it with a full example):
//
//	{
//	  "name": "my-drill",
//	  "nodes": 32,
//	  "seed": 7,
//	  "groups": [{"root": 0, "members": [10, 20], "stores": [10]}],
//	  "events": [
//	    {"at": "2m0s", "do": "crash", "node": 10},
//	    {"at": "2m10s", "do": "restart", "node": 10, "bootstrap": 0, "recover": true}
//	  ],
//	  "duration": "30m0s",
//	  "expect_survive": [0],
//	  "latency_bound": "10m0s"
//	}
//
// There is no separate wire schema: a group is a GroupSpec, and an event
// is "at", a "do" kind from the registry in actions.go, and then that
// kind's own struct fields, in the struct's order - actions.go is the
// reference for what each kind takes. Durations are Go duration
// strings. Validation is strict and names the offending field
// ("events[3].node: 40 out of range [0, 32)"): a typo'd schedule must
// fail loudly, not silently drill the wrong scenario.

// ScriptFile is the on-disk form of a scenario.
type ScriptFile struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Seed  int64  `json:"seed"`

	Groups []GroupSpec `json:"groups"`
	Events []Event     `json:"events"`

	Duration      Duration `json:"duration"`
	ExpectFail    []int    `json:"expect_fail,omitempty"`
	ExpectSurvive []int    `json:"expect_survive,omitempty"`
	LatencyBound  Duration `json:"latency_bound,omitempty"`
}

// eventHead is the part of an event's JSON object every kind shares.
type eventHead struct {
	At Duration `json:"at"`
	Do string   `json:"do"`
}

// MarshalJSON renders {"at", "do", ...the action's own fields}.
func (ev Event) MarshalJSON() ([]byte, error) {
	head := eventHead{At: Duration(ev.At)}
	for kind, zero := range kinds {
		if reflect.TypeOf(zero) == reflect.TypeOf(ev.Do) {
			head.Do = kind
			break
		}
	}
	if head.Do == "" {
		return nil, fmt.Errorf("scenario: action %T has no JSON encoding", ev.Do)
	}
	out, _ := json.Marshal(head) // two strings: cannot fail
	fields, err := json.Marshal(ev.Do)
	if err != nil {
		return nil, err
	}
	if len(fields) > len("{}") {
		out = append(append(out[:len(out)-1], ','), fields[1:]...)
	}
	return out, nil
}

// UnmarshalJSON decodes an event into the value type its "do" names,
// rejecting fields that kind does not have. What is wrong with the
// event itself - no kind, an unknown kind, a required field left out -
// is not an error here: it is left in Do (nil, or a malformed) for
// Validate to report under the event's path, like every other mistake.
func (ev *Event) UnmarshalJSON(data []byte) error {
	var head eventHead
	if err := json.Unmarshal(data, &head); err != nil {
		return err
	}
	*ev = Event{At: time.Duration(head.At)}
	zero, known := kinds[head.Do]
	if !known {
		if head.Do != "" {
			ev.Do = malformed{{"do", fmt.Sprintf("unknown action %q (one of %v)", head.Do, kindNames())}}
		}
		return nil
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	delete(fields, "at")
	delete(fields, "do")
	rest, _ := json.Marshal(fields) // re-encodes what was just decoded: cannot fail
	typ := reflect.TypeOf(zero)
	action := reflect.New(typ)
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(action.Interface()); err != nil {
		return err
	}
	ev.Do = action.Elem().Interface().(Action)
	// A field without omitempty is required: an omitted (or null) index
	// must not silently become node 0.
	var missing malformed
	for i := range typ.NumField() {
		name, opts, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if raw, ok := fields[name]; opts != "omitempty" && (!ok || string(raw) == "null") {
			missing = append(missing, [2]string{name, "required field missing"})
		}
	}
	if missing != nil {
		ev.Do = missing
	}
	return nil
}

// malformed stands in for an action that could not be decoded; it lists
// why as (field, problem) pairs.
type malformed [][2]string

func (a malformed) apply(*Engine)  { panic("scenario: event did not pass Validate: " + a.String()) }
func (a malformed) String() string { return fmt.Sprint([][2]string(a)) }
func (a malformed) validate(v *validator) {
	for _, p := range a {
		v.errf(p[0], "%s", p[1])
	}
}

// kindNames lists the registered kinds in sorted order, for error texts.
func kindNames() []string { return slices.Sorted(maps.Keys(kinds)) }

// Duration marshals as a Go duration string ("2m10s"); it round-trips
// exactly because time.Duration.String output always reparses to the
// same value.
type Duration time.Duration

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\" or \"10m\", got %s", data)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Load parses and validates a JSON scenario. Unknown fields are
// rejected (a misspelled knob must not silently fall back to a default),
// and every validation error names the field it is about.
func Load(data []byte) (*ScriptFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sf ScriptFile
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("scenario script: %w", err)
	}
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	return &sf, nil
}

// Marshal renders the canonical JSON form (indented, trailing newline).
// Marshal-Load-Marshal is byte-stable.
func (sf *ScriptFile) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// validator accumulates field-naming errors: every message starts with
// the path of the field it is about, at + field.
type validator struct {
	sf   *ScriptFile
	at   string // path prefix of the entry being checked: "" or "events[3]."
	errs []string
}

func (v *validator) errf(field, format string, args ...any) {
	v.errs = append(v.errs, v.at+field+": "+fmt.Sprintf(format, args...))
}

func (v *validator) err() error {
	if len(v.errs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario script: %s", strings.Join(v.errs, "; "))
}

// node checks a node index against the deployment size.
func (v *validator) node(field string, n int) {
	if n < 0 || n >= v.sf.Nodes {
		v.errf(field, "%d out of range [0, %d)", n, v.sf.Nodes)
	}
}

// pair checks the two ends of a link fault.
func (v *validator) pair(a, b int) {
	v.node("a", a)
	v.node("b", b)
	if a == b {
		v.errf("b", "a and b must differ")
	}
}

// prob checks a loss probability.
func (v *validator) prob(field string, p float64) {
	if p < 0 || p > 1 {
		v.errf(field, "%g out of range [0, 1]", p)
	}
}

// sides checks the sides of a partition: at least two, none empty, no
// node on more than one.
func (v *validator) sides(sides [][]int) {
	if len(sides) < 2 {
		v.errf("sides", "need at least two sides")
	}
	seen := make(map[int]bool)
	for si, side := range sides {
		if len(side) == 0 {
			v.errf(fmt.Sprintf("sides[%d]", si), "side is empty")
		}
		for ni, n := range side {
			field := fmt.Sprintf("sides[%d][%d]", si, ni)
			v.node(field, n)
			if seen[n] {
				v.errf(field, "node %d appears on more than one side", n)
			}
			seen[n] = true
		}
	}
}

// Validate checks the whole file for structural and referential errors,
// naming each offending field.
func (sf *ScriptFile) Validate() error {
	v := &validator{sf: sf}
	if sf.Nodes < 2 {
		v.errf("nodes", "%d, need at least 2", sf.Nodes)
	}
	if sf.Duration <= 0 {
		v.errf("duration", "must be positive")
	}
	if len(sf.Groups) == 0 {
		v.errf("groups", "at least one group required")
	}
	for gi, g := range sf.Groups {
		v.at = fmt.Sprintf("groups[%d].", gi)
		v.node("root", g.Root)
		if len(g.Members) == 0 {
			v.errf("members", "at least one member required")
		}
		seen := map[int]bool{g.Root: true}
		for mi, m := range g.Members {
			field := fmt.Sprintf("members[%d]", mi)
			v.node(field, m)
			if seen[m] {
				v.errf(field, "node %d listed twice in the group", m)
			}
			seen[m] = true
		}
		for si, st := range g.Stores {
			if st < 0 || st >= sf.Nodes || !seen[st] {
				v.errf(fmt.Sprintf("stores[%d]", si), "node %d is not in the group", st)
			}
		}
	}
	v.at = ""
	failed := v.expect("expect_fail", sf.ExpectFail, nil)
	v.expect("expect_survive", sf.ExpectSurvive, failed)
	for ei, ev := range sf.Events {
		v.at = fmt.Sprintf("events[%d].", ei)
		if ev.At < 0 {
			v.errf("at", "must not be negative")
		}
		if time.Duration(sf.Duration) < ev.At {
			v.errf("at", "%s is past the script duration %s", ev.At, sf.Duration)
		}
		if ev.Do == nil {
			v.errf("do", "required field missing (one of %v)", kindNames())
			continue
		}
		ev.Do.validate(v)
	}
	return v.err()
}

// expect checks one list of group expectations and returns the groups
// it names; other is the opposite list's result.
func (v *validator) expect(list string, idxs []int, other map[int]bool) map[int]bool {
	seen := make(map[int]bool, len(idxs))
	for i, gi := range idxs {
		field := fmt.Sprintf("%s[%d]", list, i)
		if gi < 0 || gi >= len(v.sf.Groups) {
			v.errf(field, "group %d out of range [0, %d)", gi, len(v.sf.Groups))
			continue
		}
		if seen[gi] {
			v.errf(field, "group %d listed twice", gi)
		}
		if other[gi] {
			v.errf(field, "group %d cannot both fail and survive", gi)
		}
		seen[gi] = true
	}
	return seen
}

// Script converts the validated file to an engine Script.
func (sf *ScriptFile) Script() Script {
	return Script{
		Name:          sf.Name,
		Groups:        sf.Groups,
		Events:        sf.Events,
		Duration:      time.Duration(sf.Duration),
		ExpectFail:    sf.ExpectFail,
		ExpectSurvive: sf.ExpectSurvive,
		LatencyBound:  time.Duration(sf.LatencyBound),
	}
}

// Build constructs the cluster and Script for the file. Nonzero p.Seed
// or p.Nodes override the file's own values (the file is revalidated
// when the deployment shrinks, so scripts cannot index past the node
// slice); the remaining Params fields are preset knobs with no meaning
// here.
func (sf *ScriptFile) Build(p Params) (*cluster.Cluster, Script, error) {
	eff := *sf
	if p.Seed != 0 {
		eff.Seed = p.Seed
	}
	if p.Nodes != 0 {
		eff.Nodes = p.Nodes
		if err := eff.Validate(); err != nil {
			return nil, Script{}, fmt.Errorf("with nodes=%d: %w", p.Nodes, err)
		}
	}
	c := cluster.New(cluster.Options{N: eff.Nodes, Seed: eff.Seed, Workers: p.Workers})
	return c, eff.Script(), nil
}

// ToFile pairs a Script with the cluster sizing that accompanies it: the
// on-disk form. Marshal fails on a hand-built Script whose Action type
// is not in the registry.
func ToFile(nodes int, seed int64, s Script) *ScriptFile {
	return &ScriptFile{
		Name:          s.Name,
		Nodes:         nodes,
		Seed:          seed,
		Groups:        s.Groups,
		Events:        s.Events,
		Duration:      Duration(s.Duration),
		ExpectFail:    s.ExpectFail,
		ExpectSurvive: s.ExpectSurvive,
		LatencyBound:  Duration(s.LatencyBound),
	}
}
