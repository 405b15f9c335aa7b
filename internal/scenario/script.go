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
)

// Scenario scripts as data: a Script is its own JSON form. Whatever
// builds one - a file, a preset, a figure driver, the fuzzer, fusesim's
// sizing flags - gets the same type and the same validation, so failure
// drills can be written, versioned and replayed without recompiling, and
// fuzz-found counterexamples are plain files anyone can rerun with
// `fusesim -scenario <file.json>`. Every Action round-trips:
// Load(Marshal(x)) preserves the schedule exactly, and because the engine
// is deterministic, the loaded copy replays to a byte-identical trace for
// the same seed.
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
//	  "expect_survive": [0]
//	}
//
// There is no separate wire schema: a group is a GroupSpec, and an event
// is "at", a "do" kind from the registry in actions.go, and then that
// kind's own struct fields, in the struct's order - actions.go is the
// reference for what each kind takes. Durations are Go duration
// strings. Validation is strict and names the offending field
// ("events[3].node: 40 out of range [0, 32)"): a typo'd schedule must
// fail loudly, not silently drill the wrong scenario. Load validates a
// script against the deployment it names; Start validates every script
// against the cluster it is handed.

// Script is a complete declarative scenario.
type Script struct {
	Name string `json:"name"`

	// Nodes and Seed name the deployment the script is written for: a
	// file and a preset carry them, and BuildPreset and fusesim build
	// the cluster from them. A driver that brings its own cluster may
	// leave them zero; Start rejects a nonzero Nodes that differs from
	// the cluster's size.
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`

	Groups []GroupSpec `json:"groups"`
	Events []Event     `json:"events"`

	// Duration is the virtual time the scenario runs after setup. It
	// must leave enough room after the last event for detection and
	// repair to settle (the protocol's timeouts are minutes).
	Duration Duration `json:"duration"`

	// ExpectFail and ExpectSurvive list group indices that must have
	// failed (every eligible member notified) or survived (state intact
	// everywhere, zero notices) by the end of the run.
	ExpectFail    []int `json:"expect_fail,omitempty"`
	ExpectSurvive []int `json:"expect_survive,omitempty"`
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

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return time.Duration(d).Seconds() }

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
func Load(data []byte) (Script, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Script
	if err := dec.Decode(&s); err != nil {
		return Script{}, fmt.Errorf("scenario script: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Script{}, err
	}
	return s, nil
}

// Marshal renders the canonical JSON form (indented, trailing newline).
// Marshal-Load-Marshal is byte-stable. It fails on a hand-built Script
// whose Action type is not in the registry.
func (s Script) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// validator accumulates field-naming errors: every message starts with
// the path of the field it is about, at + field.
type validator struct {
	s     *Script
	nodes int    // the deployment's size
	at    string // path prefix of the entry being checked: "" or "events[3]."
	errs  []string
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
	if n < 0 || n >= v.nodes {
		v.errf(field, "%d out of range [0, %d)", n, v.nodes)
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

// Validate checks a script against the deployment it names (Nodes) for
// structural and referential errors, naming each offending field.
func (s Script) Validate() error { return s.validate(s.Nodes) }

// validate checks s against a deployment of the given size.
func (s Script) validate(nodes int) error {
	v := &validator{s: &s, nodes: nodes}
	switch {
	case s.Nodes != 0 && s.Nodes != nodes:
		v.errf("nodes", "%d, but the cluster has %d", s.Nodes, nodes)
	case nodes < 2:
		v.errf("nodes", "%d, need at least 2", nodes)
	}
	if s.Duration <= 0 {
		v.errf("duration", "must be positive")
	}
	if len(s.Groups) == 0 {
		v.errf("groups", "at least one group required")
	}
	for gi, g := range s.Groups {
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
			if st < 0 || st >= nodes || !seen[st] {
				v.errf(fmt.Sprintf("stores[%d]", si), "node %d is not in the group", st)
			}
		}
	}
	v.at = ""
	failed := v.expect("expect_fail", s.ExpectFail, nil)
	v.expect("expect_survive", s.ExpectSurvive, failed)
	for ei, ev := range s.Events {
		v.at = fmt.Sprintf("events[%d].", ei)
		if ev.At < 0 {
			v.errf("at", "must not be negative")
		}
		if time.Duration(s.Duration) < ev.At {
			v.errf("at", "%s is past the script duration %s", ev.At, s.Duration)
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
		if gi < 0 || gi >= len(v.s.Groups) {
			v.errf(field, "group %d out of range [0, %d)", gi, len(v.s.Groups))
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
