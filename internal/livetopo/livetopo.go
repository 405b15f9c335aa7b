// Package livetopo implements the three alternative liveness-checking
// topologies of §5.1 of the paper, each providing the same FUSE
// abstraction (distributed one-way agreement) without an overlay:
//
//   - DirectTree: a per-group spanning tree without an overlay (realized
//     as a root-centered star, the tree the paper's own repair path
//     degenerates to when overlay routing fails). Liveness traffic is
//     additive in the number of groups.
//   - AllToAll: per-group all-to-all pinging. Robust to dropped
//     notification attacks and gives a worst-case notification latency of
//     twice the ping interval, at n^2 messages per group per interval.
//   - CentralServer: one trusted server pings every group member (and is
//     pinged by each); all failure decisions and notifications flow
//     through it. Minimal member load, server is the throughput
//     bottleneck.
//
// A topology is stated once, as the peers a node pings for a group, and
// there is one fan-out rule: a node that decides a group failed notifies
// the peers it pings, and a hub (a direct tree's root, or the central
// server) that receives a notice passes it on to its own. The central
// server is enlisted in every group like one more member: the root sends
// it the same join and activate.
//
// The package exists for the ablation benchmarks comparing these
// topologies' message load and notification latency against the
// overlay-sharing implementation in internal/core. A Service speaks
// core's group types, so it is a cluster.Groups like core.Fuse, and the
// scenario engine creates, faults and audits its groups the same way.
//
// A Service is configured by its topology alone. It pings at the
// overlay's interval and timeout (overlay.DefaultConfig), which keeps the
// ablation's comparison with the overlay-sharing implementation fair.
package livetopo

import (
	"errors"
	"fmt"
	"time"

	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Kind selects the liveness-checking topology.
type Kind int

const (
	// DirectTree monitors along a root-centered star.
	DirectTree Kind = iota
	// AllToAll monitors every member pair.
	AllToAll
	// CentralServer funnels all monitoring through one server node.
	CentralServer
)

func (k Kind) String() string {
	switch k {
	case DirectTree:
		return "direct-tree"
	case AllToAll:
		return "all-to-all"
	case CentralServer:
		return "central-server"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config picks the topology.
type Config struct {
	Kind Kind
	// Server is the central server's identity; required for
	// CentralServer.
	Server overlay.NodeRef
}

// ping is the protocols' liveness timing: the overlay's own, so an
// ablation compares topologies and not timings.
var ping = overlay.DefaultConfig()

// createTimeout bounds how long a root waits for every member to join.
const createTimeout = 30 * time.Second

// A group's ID, notices and handlers are core's: the ID embeds the root
// so members can reach it directly, and a notice carries no Reason.
type (
	GroupID = core.GroupID
	Notice  = core.Notice
	Handler = core.Handler
)

// ErrCreateTimeout reports an unreachable member during creation.
var ErrCreateTimeout = errors.New("livetopo: group creation timed out")

// group is the per-node, per-group monitoring state.
type group struct {
	id      GroupID
	members []overlay.NodeRef // full membership, including the root
	isRoot  bool

	// active marks that the root has confirmed every member installed
	// state; monitoring only starts then, so creation-time pings cannot
	// race ahead of installation and fail a healthy group.
	active          bool
	activationTimer transport.Timer

	// peers maps the addresses this node monitors to their ping state.
	peers map[transport.Addr]*peer
}

type peer struct {
	ref     overlay.NodeRef
	seq     uint64
	sendT   transport.Timer
	timeout transport.Timer
}

// creating tracks an in-progress creation at the root.
type creating struct {
	id      GroupID
	members []overlay.NodeRef
	pending map[string]bool
	timer   transport.Timer
	done    func(GroupID, error)
}

// Service is the per-node protocol instance. Like core.Fuse it runs
// entirely on its Env's event loop.
type Service struct {
	env  transport.Env
	cfg  Config
	self overlay.NodeRef

	groups   map[GroupID]*group
	creating map[GroupID]*creating
	handlers map[GroupID][]Handler
}

// New creates the service for a node named by ref (which must carry the
// node's transport address).
func New(env transport.Env, cfg Config, self overlay.NodeRef) *Service {
	return &Service{
		env:      env,
		cfg:      cfg,
		self:     self,
		groups:   make(map[GroupID]*group),
		creating: make(map[GroupID]*creating),
		handlers: make(map[GroupID][]Handler),
	}
}

// HasState reports whether the node holds state for id.
func (s *Service) HasState(id GroupID) bool {
	if _, ok := s.groups[id]; ok {
		return true
	}
	_, ok := s.creating[id]
	return ok
}

// --- API (mirrors Figure 1) ---

// CreateGroup creates a group over members (the caller becomes the root)
// and reports the outcome through done.
func (s *Service) CreateGroup(members []overlay.NodeRef, done func(GroupID, error)) {
	if done == nil {
		done = func(GroupID, error) {}
	}
	id := GroupID{Root: s.self, Num: s.env.Rand().Uint64()}
	full := []overlay.NodeRef{s.self}
	seen := map[string]bool{s.self.Name: true}
	for _, m := range members {
		if !seen[m.Name] {
			seen[m.Name] = true
			full = append(full, m)
		}
	}
	c := &creating{id: id, members: full, pending: make(map[string]bool), done: done}
	s.creating[id] = c
	for _, m := range s.enlisted(full) {
		c.pending[m.Name] = true
		s.env.Send(m.Addr, &msgJoin{ID: id, Members: full})
	}
	if len(c.pending) == 0 {
		delete(s.creating, id)
		s.install(id, full, true)
		s.env.After(0, func() { done(id, nil) })
		return
	}
	c.timer = s.env.After(createTimeout, func() {
		if _, still := s.creating[id]; !still {
			return
		}
		delete(s.creating, id)
		for _, m := range full[1:] {
			s.env.Send(m.Addr, &msgNotify{ID: id})
		}
		done(GroupID{}, ErrCreateTimeout)
	})
}

// enlisted returns the participants a root enlists in a group over
// members (the root first): every other member and, on a central
// server's topology, the server, which joins and activates every group
// as one more participant.
func (s *Service) enlisted(members []overlay.NodeRef) []overlay.NodeRef {
	others := members[1:]
	if s.cfg.Kind == CentralServer && !s.isServer() {
		return append(others[:len(others):len(others)], s.cfg.Server)
	}
	return others
}

// isServer reports whether this node is the central server.
func (s *Service) isServer() bool {
	return s.cfg.Kind == CentralServer && s.self.Name == s.cfg.Server.Name
}

// RegisterFailureHandler mirrors the FUSE API: unknown groups fire
// immediately.
func (s *Service) RegisterFailureHandler(h Handler, id GroupID) {
	if h == nil {
		return
	}
	if !s.HasState(id) {
		s.env.After(0, func() { h(Notice{ID: id}) })
		return
	}
	s.handlers[id] = append(s.handlers[id], h)
}

// SignalFailure explicitly fails the group.
func (s *Service) SignalFailure(id GroupID) {
	g, ok := s.groups[id]
	if !ok {
		return
	}
	s.failGroup(g)
}

// --- group mechanics ---

// install sets up state for a group this node belongs to. Monitoring
// starts when activate runs: immediately for the root (which only installs
// once every member has acknowledged), and on receipt of msgActivate for
// everyone else.
func (s *Service) install(id GroupID, members []overlay.NodeRef, isRoot bool) {
	if _, dup := s.groups[id]; dup {
		return
	}
	g := &group{id: id, members: members, isRoot: isRoot, peers: make(map[transport.Addr]*peer)}
	s.groups[id] = g
	if isRoot {
		s.activate(g)
		for _, m := range s.enlisted(members) {
			s.env.Send(m.Addr, &msgActivate{ID: id})
		}
		return
	}
	// A member whose activation never arrives cannot tell whether the
	// group exists; after a generous bound it must resolve to failure,
	// or its state would be orphaned forever.
	g.activationTimer = s.env.After(2*createTimeout, func() {
		if s.groups[id] == g && !g.active {
			s.failGroup(g)
		}
	})
}

// activate starts this node's monitoring duties for g.
func (s *Service) activate(g *group) {
	if g.active {
		return
	}
	g.active = true
	if g.activationTimer != nil {
		g.activationTimer.Stop()
		g.activationTimer = nil
	}
	for _, m := range s.monitorTargets(g) {
		s.addPeer(g, m)
	}
}

// monitorTargets returns the peers this node pings for g, which are
// also the peers it notifies when g fails: the one statement of a
// topology's fan-out.
func (s *Service) monitorTargets(g *group) []overlay.NodeRef {
	switch {
	case s.cfg.Kind == DirectTree && g.isRoot:
		return g.members[1:]
	case s.cfg.Kind == DirectTree:
		return []overlay.NodeRef{g.id.Root}
	case s.cfg.Kind == CentralServer && !s.isServer():
		return []overlay.NodeRef{s.cfg.Server}
	}
	var out []overlay.NodeRef // all-to-all, and the server: every other member
	for _, m := range g.members {
		if m.Name != s.self.Name {
			out = append(out, m)
		}
	}
	return out
}

// hub reports whether this node passes on a notice it receives for g: a
// direct tree's root, or the central server.
func (s *Service) hub(g *group) bool {
	return s.cfg.Kind == DirectTree && g.isRoot || s.isServer()
}

func (s *Service) addPeer(g *group, ref overlay.NodeRef) {
	if _, dup := g.peers[ref.Addr]; dup {
		return
	}
	p := &peer{ref: ref}
	g.peers[ref.Addr] = p
	phase := time.Duration(s.env.Rand().Int63n(int64(ping.PingInterval) + 1))
	p.sendT = s.env.After(phase, func() { s.pingPeer(g, p) })
}

func (s *Service) pingPeer(g *group, p *peer) {
	if s.groups[g.id] != g {
		return
	}
	p.seq++
	seq := p.seq
	s.env.Send(p.ref.Addr, &msgPing{ID: g.id, From: s.self, Seq: seq})
	if p.timeout != nil {
		p.timeout.Stop()
	}
	p.timeout = s.env.After(ping.PingTimeout, func() { s.failGroup(g) })
	p.sendT = s.env.After(ping.PingInterval, func() { s.pingPeer(g, p) })
}

// failGroup is the local failure decision: notify the peers this node
// pings, then the application, and stop acknowledging, so everyone else
// converges. The central server has no application to notify; it only
// drops its state.
func (s *Service) failGroup(g *group) {
	if s.groups[g.id] != g {
		return
	}
	for _, m := range s.monitorTargets(g) {
		s.env.Send(m.Addr, &msgNotify{ID: g.id})
	}
	if s.isServer() {
		s.dropGroup(g.id)
		return
	}
	s.notifyAndDrop(g.id)
}

func (s *Service) notifyAndDrop(id GroupID) {
	hs := s.handlers[id]
	delete(s.handlers, id)
	for _, h := range hs {
		h(Notice{ID: id})
	}
	s.dropGroup(id)
}

func (s *Service) dropGroup(id GroupID) {
	g, ok := s.groups[id]
	if !ok {
		return
	}
	for _, p := range g.peers {
		if p.sendT != nil {
			p.sendT.Stop()
		}
		if p.timeout != nil {
			p.timeout.Stop()
		}
	}
	delete(s.groups, id)
}
