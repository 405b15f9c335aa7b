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
//   - CentralServer: one trusted server pings^Wis pinged by every group
//     member; all failure decisions and notifications flow through it.
//     Minimal member load, server is the throughput bottleneck.
//
// The package exists for the ablation benchmarks comparing these
// topologies' message load and notification latency against the
// overlay-sharing implementation in internal/core.
package livetopo

import (
	"errors"
	"fmt"
	"time"

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

// Config times the protocols. Matching the overlay FUSE configuration
// keeps ablation comparisons fair.
type Config struct {
	Kind          Kind
	PingInterval  time.Duration
	PingTimeout   time.Duration
	CreateTimeout time.Duration
	// Server is the central server's identity; required for
	// CentralServer.
	Server overlay.NodeRef
}

// DefaultConfig mirrors the paper's 60 s interval / 20 s timeout.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:          kind,
		PingInterval:  60 * time.Second,
		PingTimeout:   20 * time.Second,
		CreateTimeout: 30 * time.Second,
	}
}

// GroupID names a group; as in core, it embeds the root so members can
// reach it directly.
type GroupID struct {
	Root overlay.NodeRef
	Num  uint64
}

func (id GroupID) String() string { return fmt.Sprintf("%s/%x", id.Root.Name, id.Num) }

// Notice is delivered to failure handlers.
type Notice struct{ ID GroupID }

// Handler is an application failure callback.
type Handler func(Notice)

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

	// server-side registry (only used on the CentralServer node).
	registry map[GroupID][]overlay.NodeRef
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
		registry: make(map[GroupID][]overlay.NodeRef),
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

func (s *Service) send(to transport.Addr, msg transport.Message) {
	s.env.Send(to, msg)
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
	for _, m := range full[1:] {
		c.pending[m.Name] = true
	}
	if s.cfg.Kind == CentralServer && s.self.Name != s.cfg.Server.Name {
		c.pending[s.cfg.Server.Name] = true
	}
	s.creating[id] = c

	for _, m := range full[1:] {
		s.send(m.Addr, &msgJoin{ID: id, Members: full})
	}
	if s.cfg.Kind == CentralServer && s.self.Name != s.cfg.Server.Name {
		s.send(s.cfg.Server.Addr, &msgRegister{ID: id, Members: full})
	}
	if len(c.pending) == 0 {
		delete(s.creating, id)
		s.install(id, full, true)
		s.env.After(0, func() { done(id, nil) })
		return
	}
	c.timer = s.env.After(s.cfg.CreateTimeout, func() {
		if _, still := s.creating[id]; !still {
			return
		}
		delete(s.creating, id)
		for _, m := range full[1:] {
			s.send(m.Addr, &msgNotify{ID: id})
		}
		done(GroupID{}, ErrCreateTimeout)
	})
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
		for _, m := range members[1:] {
			s.send(m.Addr, &msgActivate{ID: id})
		}
		if s.cfg.Kind == CentralServer && s.self.Name != s.cfg.Server.Name {
			s.send(s.cfg.Server.Addr, &msgActivate{ID: id})
		}
		return
	}
	// A member whose activation never arrives cannot tell whether the
	// group exists; after a generous bound it must resolve to failure,
	// or its state would be orphaned forever.
	g.activationTimer = s.env.After(2*s.cfg.CreateTimeout, func() {
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

// monitorTargets returns which members this node pings for g.
func (s *Service) monitorTargets(g *group) []overlay.NodeRef {
	var out []overlay.NodeRef
	switch s.cfg.Kind {
	case DirectTree:
		if g.isRoot {
			out = append(out, g.members[1:]...)
		} else {
			out = append(out, g.id.Root)
		}
	case AllToAll:
		for _, m := range g.members {
			if m.Name != s.self.Name {
				out = append(out, m)
			}
		}
	case CentralServer:
		if s.self.Name == s.cfg.Server.Name {
			// The server monitors every registered member.
			for _, m := range g.members {
				if m.Name != s.self.Name {
					out = append(out, m)
				}
			}
		} else {
			out = append(out, s.cfg.Server)
		}
	}
	return out
}

func (s *Service) addPeer(g *group, ref overlay.NodeRef) {
	if _, dup := g.peers[ref.Addr]; dup {
		return
	}
	p := &peer{ref: ref}
	g.peers[ref.Addr] = p
	phase := time.Duration(s.env.Rand().Int63n(int64(s.cfg.PingInterval) + 1))
	p.sendT = s.env.After(phase, func() { s.pingPeer(g, p) })
}

func (s *Service) pingPeer(g *group, p *peer) {
	if s.groups[g.id] != g {
		return
	}
	p.seq++
	seq := p.seq
	s.send(p.ref.Addr, newMsgPingFor(g.id, s.self, seq))
	if p.timeout != nil {
		p.timeout.Stop()
	}
	p.timeout = s.env.After(s.cfg.PingTimeout, func() { s.peerDead(g, p) })
	p.sendT = s.env.After(s.cfg.PingInterval, func() { s.pingPeer(g, p) })
}

// peerDead converts a missed ack into a group failure decision.
func (s *Service) peerDead(g *group, p *peer) {
	if s.groups[g.id] != g {
		return
	}
	if s.cfg.Kind == CentralServer && s.self.Name == s.cfg.Server.Name {
		// Server-side: notify every member of every group containing
		// the dead node. (This group certainly contains it.)
		s.serverFail(g)
		return
	}
	s.failGroup(g)
}

// failGroup is the local failure decision: notify the application, stop
// acknowledging (so everyone else converges), and propagate as the
// topology allows.
func (s *Service) failGroup(g *group) {
	if s.groups[g.id] != g {
		return
	}
	switch s.cfg.Kind {
	case DirectTree:
		if g.isRoot {
			for _, m := range g.members[1:] {
				s.send(m.Addr, &msgNotify{ID: g.id})
			}
		} else {
			s.send(g.id.Root.Addr, &msgNotify{ID: g.id})
		}
	case AllToAll:
		for _, m := range g.members {
			if m.Name != s.self.Name {
				s.send(m.Addr, &msgNotify{ID: g.id})
			}
		}
	case CentralServer:
		if s.self.Name == s.cfg.Server.Name {
			s.serverFail(g)
			return
		}
		s.send(s.cfg.Server.Addr, &msgNotify{ID: g.id})
	}
	s.notifyAndDrop(g.id)
}

// serverFail is the central server's fan-out.
func (s *Service) serverFail(g *group) {
	for _, m := range g.members {
		if m.Name != s.self.Name {
			s.send(m.Addr, &msgNotify{ID: g.id})
		}
	}
	s.dropGroup(g.id)
	delete(s.registry, g.id)
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
