// Package swim is a weakly consistent membership service in the style of
// SWIM (Das, Gupta, Motivala; DSN 2002), the class of prior work the
// paper contrasts FUSE against (§2). It provides the classic membership
// abstraction - a per-node list of who is up and who is down - built from
// randomized direct probes, indirect probes through proxies, a
// suspect-before-dead state machine with incarnation-numbered refutation,
// and piggybacked gossip dissemination.
//
// The repository uses it as the baseline in the abstraction-comparison
// benchmarks: it shows the membership-list semantics (a node is globally
// up or globally down) that make intransitive connectivity failures
// awkward, which is precisely the gap the FUSE group abstraction fills.
package swim

import (
	"fmt"
	"sort"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// State is a member's health in the local view.
type State int

const (
	// Alive members answered (directly or via proxy) recently.
	Alive State = iota
	// Suspect members missed a probe round; they are declared Dead if
	// no refutation arrives within the suspect timeout.
	Suspect
	// Dead members have been removed from the probe rotation.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config carries the SWIM protocol parameters.
type Config struct {
	// ProtocolPeriod is the probe round length.
	ProtocolPeriod time.Duration
	// AckTimeout bounds the direct-probe wait within a round; the
	// remainder of the round is given to indirect probes.
	AckTimeout time.Duration
	// IndirectProbes is the number of proxy nodes asked to probe an
	// unresponsive target (SWIM's k).
	IndirectProbes int
	// SuspectTimeout is how long a suspect may refute before being
	// declared dead.
	SuspectTimeout time.Duration
	// MaxGossip is the maximum number of membership updates piggybacked
	// per message.
	MaxGossip int
	// GossipRetransmits is how many times each update is piggybacked
	// before it stops being disseminated.
	GossipRetransmits int
}

// DefaultConfig returns parameters in the regime the SWIM paper
// evaluates.
func DefaultConfig() Config {
	return Config{
		ProtocolPeriod:    1 * time.Second,
		AckTimeout:        300 * time.Millisecond,
		IndirectProbes:    3,
		SuspectTimeout:    5 * time.Second,
		MaxGossip:         6,
		GossipRetransmits: 8,
	}
}

// Update is one gossiped membership event.
type Update struct {
	Name        string
	Addr        transport.Addr
	State       State
	Incarnation uint64
}

// member is the local record for a peer.
type member struct {
	ref         overlay.NodeRef
	state       State
	incarnation uint64
	suspectT    transport.Timer
}

// Service is the per-node SWIM instance, driven by its Env's event loop.
type Service struct {
	env  transport.Env
	cfg  Config
	self overlay.NodeRef

	incarnation uint64
	members     map[string]*member
	order       []string // randomized probe rotation
	orderPos    int

	// pending gossip, keyed by member name, with remaining transmit
	// budget.
	gossip map[string]*gossipEntry

	probeSeq uint64
	// probes tracks outstanding probe sequence numbers by target name;
	// an entry disappears when the ack (direct or relayed) arrives.
	// Tracking per probe rather than "the current probe" matters: probe
	// rounds overlap their own indirect-probe windows, and a new round
	// must not cancel the previous round's pending verdict.
	probes  map[uint64]string
	ackWait transport.Timer
	roundT  transport.Timer

	// indirect relays in flight: seq -> requester
	relays map[uint64]relay

	// OnChange, if set, observes every state transition applied to the
	// local view.
	OnChange func(ref overlay.NodeRef, s State)

	stopped bool
}

type gossipEntry struct {
	update Update
	left   int
}

type relay struct {
	requester overlay.NodeRef
	target    string
}

// New creates a SWIM instance for self.
func New(env transport.Env, cfg Config, self overlay.NodeRef) *Service {
	return &Service{
		env:     env,
		cfg:     cfg,
		self:    self,
		members: make(map[string]*member),
		gossip:  make(map[string]*gossipEntry),
		probes:  make(map[uint64]string),
		relays:  make(map[uint64]relay),
	}
}

// Bootstrap seeds the membership list and starts the probe loop.
func (s *Service) Bootstrap(peers []overlay.NodeRef) {
	for _, p := range peers {
		if p.Name == s.self.Name {
			continue
		}
		s.applyUpdate(Update{Name: p.Name, Addr: p.Addr, State: Alive})
	}
	s.scheduleRound()
}

// Stop halts probing.
func (s *Service) Stop() {
	s.stopped = true
	stopT(s.roundT)
	stopT(s.ackWait)
	for _, m := range s.members {
		stopT(m.suspectT)
	}
}

// Status returns the local view of a peer.
func (s *Service) Status(name string) (State, bool) {
	m, ok := s.members[name]
	if !ok {
		return Dead, false
	}
	return m.state, true
}

// Alive returns all peers currently believed alive, sorted by name.
func (s *Service) Alive() []overlay.NodeRef {
	var out []overlay.NodeRef
	for _, m := range s.members {
		if m.state == Alive {
			out = append(out, m.ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func stopT(t transport.Timer) {
	if t != nil {
		t.Stop()
	}
}

func (s *Service) send(to transport.Addr, msg transport.Message) {
	if s.stopped {
		return
	}
	s.env.Send(to, msg)
}

// --- probe rounds ---

func (s *Service) scheduleRound() {
	if s.stopped {
		return
	}
	s.roundT = s.env.After(s.cfg.ProtocolPeriod, func() {
		s.startRound()
		s.scheduleRound()
	})
}

// startRound probes the next member in the randomized rotation (SWIM's
// round-robin over a shuffled list gives time-bounded completeness).
func (s *Service) startRound() {
	target := s.nextTarget()
	if target == "" {
		return
	}
	m := s.members[target]
	s.probeSeq++
	seq := s.probeSeq
	s.probes[seq] = target
	s.send(m.ref.Addr, &msgPing{From: s.self, Seq: seq, Updates: s.takeGossip()})
	s.env.After(s.cfg.AckTimeout, func() { s.directProbeFailed(target, seq) })
}

func (s *Service) nextTarget() string {
	// Rebuild the rotation when exhausted, shuffled, skipping the dead.
	for tries := 0; tries < 2; tries++ {
		for s.orderPos < len(s.order) {
			name := s.order[s.orderPos]
			s.orderPos++
			if m, ok := s.members[name]; ok && m.state != Dead {
				return name
			}
		}
		s.order = s.order[:0]
		for name, m := range s.members {
			if m.state != Dead {
				s.order = append(s.order, name)
			}
		}
		sort.Strings(s.order) // determinism before shuffling
		s.env.Rand().Shuffle(len(s.order), func(i, j int) {
			s.order[i], s.order[j] = s.order[j], s.order[i]
		})
		s.orderPos = 0
	}
	return ""
}

// directProbeFailed falls back to indirect probes through k random
// proxies.
func (s *Service) directProbeFailed(target string, seq uint64) {
	if s.probes[seq] != target {
		return // already acknowledged
	}
	m, ok := s.members[target]
	if !ok || m.state == Dead {
		delete(s.probes, seq)
		return
	}
	proxies := s.randomProxies(target, s.cfg.IndirectProbes)
	if len(proxies) == 0 {
		delete(s.probes, seq)
		s.suspect(target)
		return
	}
	for _, p := range proxies {
		s.send(p.Addr, &msgPingReq{From: s.self, Target: m.ref, Seq: seq, Updates: s.takeGossip()})
	}
	// Give the indirect path the rest of the protocol period.
	rest := s.cfg.ProtocolPeriod - s.cfg.AckTimeout
	s.env.After(rest, func() {
		if s.probes[seq] == target {
			delete(s.probes, seq)
			s.suspect(target)
		}
	})
}

func (s *Service) randomProxies(exclude string, k int) []overlay.NodeRef {
	var pool []overlay.NodeRef
	for name, m := range s.members {
		if name != exclude && m.state == Alive {
			pool = append(pool, m.ref)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Name < pool[j].Name })
	s.env.Rand().Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}

// --- state transitions ---

// suspect marks a member suspect and gossips the suspicion.
func (s *Service) suspect(name string) {
	m, ok := s.members[name]
	if !ok || m.state != Alive {
		return
	}
	s.applyUpdate(Update{Name: name, Addr: m.ref.Addr, State: Suspect, Incarnation: m.incarnation})
}

// applyUpdate merges a membership event into the local view using SWIM's
// precedence rules and queues it for further gossip if it changed
// anything.
func (s *Service) applyUpdate(u Update) {
	if u.Name == s.self.Name {
		// Someone suspects us: refute with a higher incarnation.
		if u.State != Alive && u.Incarnation >= s.incarnation {
			s.incarnation = u.Incarnation + 1
			s.queueGossip(Update{Name: s.self.Name, Addr: s.self.Addr, State: Alive, Incarnation: s.incarnation})
		}
		return
	}
	m, ok := s.members[u.Name]
	if !ok {
		if u.State == Dead {
			return // never heard of it; nothing to remove
		}
		m = &member{ref: overlay.NodeRef{Name: u.Name, Addr: u.Addr}, state: Alive, incarnation: u.Incarnation}
		s.members[u.Name] = m
		if u.State == Suspect {
			s.toSuspect(m, u.Incarnation)
		}
		s.queueGossip(u)
		s.notify(m)
		return
	}
	changed := false
	switch u.State {
	case Alive:
		if u.Incarnation > m.incarnation || (m.state == Dead && u.Incarnation >= m.incarnation) {
			m.incarnation = u.Incarnation
			if m.state != Alive {
				m.state = Alive
				stopT(m.suspectT)
				changed = true
			} else {
				changed = true // fresher incarnation still worth gossiping
			}
		}
	case Suspect:
		if (m.state == Alive && u.Incarnation >= m.incarnation) ||
			(m.state == Suspect && u.Incarnation > m.incarnation) {
			s.toSuspect(m, u.Incarnation)
			changed = true
		}
	case Dead:
		if m.state != Dead {
			m.state = Dead
			stopT(m.suspectT)
			changed = true
		}
	}
	if changed {
		s.queueGossip(Update{Name: u.Name, Addr: m.ref.Addr, State: m.state, Incarnation: m.incarnation})
		s.notify(m)
	}
}

func (s *Service) toSuspect(m *member, inc uint64) {
	m.state = Suspect
	m.incarnation = inc
	stopT(m.suspectT)
	name := m.ref.Name
	m.suspectT = s.env.After(s.cfg.SuspectTimeout, func() {
		cur, ok := s.members[name]
		if ok && cur.state == Suspect {
			s.applyUpdate(Update{Name: name, Addr: cur.ref.Addr, State: Dead, Incarnation: cur.incarnation})
		}
	})
}

func (s *Service) notify(m *member) {
	if s.OnChange != nil {
		s.OnChange(m.ref, m.state)
	}
}

// --- gossip ---

func (s *Service) queueGossip(u Update) {
	s.gossip[u.Name] = &gossipEntry{update: u, left: s.cfg.GossipRetransmits}
}

// takeGossip selects up to MaxGossip updates with remaining budget,
// preferring the freshest (highest remaining count).
func (s *Service) takeGossip() []Update {
	var names []string
	for name, e := range s.gossip {
		if e.left > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if s.gossip[names[i]].left != s.gossip[names[j]].left {
			return s.gossip[names[i]].left > s.gossip[names[j]].left
		}
		return names[i] < names[j]
	})
	if len(names) > s.cfg.MaxGossip {
		names = names[:s.cfg.MaxGossip]
	}
	out := make([]Update, 0, len(names))
	for _, name := range names {
		e := s.gossip[name]
		e.left--
		out = append(out, e.update)
		if e.left <= 0 {
			delete(s.gossip, name)
		}
	}
	return out
}

func (s *Service) applyAll(us []Update) {
	for _, u := range us {
		s.applyUpdate(u)
	}
}
