package livetopo

import (
	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Wire messages. Each embeds the transport marker (via the unexported
// alias, kept off the wire) and joins the transport.Message union as a
// pointer record.
type body = transport.Body

// msgJoin asks a member to install monitoring state for a new group.
type msgJoin struct {
	body
	ID      GroupID
	Members []overlay.NodeRef
}

// msgJoinAck confirms installation.
type msgJoinAck struct {
	body
	ID   GroupID
	From overlay.NodeRef
}

// msgPing is the per-group liveness check: one ping and ack per peer per
// group per interval, the O(groups) cost FUSE's piggybacking eliminates.
type msgPing struct {
	body
	ID   GroupID
	From overlay.NodeRef
	Seq  uint64
}

// msgPingAck answers a ping. Silenced groups do not ack, which is the
// propagation mechanism: a missed ack anywhere becomes a failure decision
// there, and so on transitively.
type msgPingAck struct {
	body
	ID   GroupID
	From overlay.NodeRef
	Seq  uint64
}

// msgActivate tells a member that creation completed everywhere and
// monitoring may begin.
type msgActivate struct {
	body
	ID GroupID
}

// msgNotify is the failure notification.
type msgNotify struct {
	body
	ID GroupID
}

func init() {
	transport.Register("livetopo.join", func() transport.Message { return new(msgJoin) })
	transport.Register("livetopo.joinAck", func() transport.Message { return new(msgJoinAck) })
	transport.Register("livetopo.activate", func() transport.Message { return new(msgActivate) })
	transport.Register("livetopo.ping", func() transport.Message { return new(msgPing) })
	transport.Register("livetopo.pingAck", func() transport.Message { return new(msgPingAck) })
	transport.Register("livetopo.notify", func() transport.Message { return new(msgNotify) })
}

// Handle dispatches a transport message; false means "not ours".
func (s *Service) Handle(from transport.Addr, msg transport.Message) bool {
	switch m := msg.(type) {
	case *msgJoin:
		s.handleJoin(m)
	case *msgJoinAck:
		s.handleJoinAck(m)
	case *msgActivate:
		s.handleActivate(m)
	case *msgPing:
		s.handlePing(m)
	case *msgPingAck:
		s.handlePingAck(m)
	case *msgNotify:
		s.handleNotify(m)
	default:
		return false
	}
	return true
}

func (s *Service) handleJoin(m *msgJoin) {
	s.install(m.ID, m.Members, false)
	s.env.Send(m.ID.Root.Addr, &msgJoinAck{ID: m.ID, From: s.self})
}

func (s *Service) handleJoinAck(m *msgJoinAck) {
	c, ok := s.creating[m.ID]
	if !ok {
		return
	}
	delete(c.pending, m.From.Name)
	if len(c.pending) > 0 {
		return
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	delete(s.creating, m.ID)
	s.install(c.id, c.members, true)
	c.done(c.id, nil)
}

func (s *Service) handleActivate(m *msgActivate) {
	if g, ok := s.groups[m.ID]; ok {
		s.activate(g)
	}
}

func (s *Service) handlePing(m *msgPing) {
	if _, ok := s.groups[m.ID]; !ok {
		return // ceasing to ack is how failure propagates
	}
	s.env.Send(m.From.Addr, &msgPingAck{ID: m.ID, From: s.self, Seq: m.Seq})
}

func (s *Service) handlePingAck(m *msgPingAck) {
	g, ok := s.groups[m.ID]
	if !ok {
		return
	}
	p, ok := g.peers[m.From.Addr]
	if !ok || p.seq != m.Seq {
		return
	}
	if p.timeout != nil {
		p.timeout.Stop()
		p.timeout = nil
	}
}

// handleNotify fails the group here: a hub passes the notice on to the
// peers it pings, as its own decision would; everyone else notifies the
// application and goes quiet. A notice for a group this node holds no
// state for (a creation that failed after it joined, or a duplicate)
// still fires any handlers left for it.
func (s *Service) handleNotify(m *msgNotify) {
	g, ok := s.groups[m.ID]
	switch {
	case ok && s.hub(g):
		s.failGroup(g)
	case ok || len(s.handlers[m.ID]) > 0:
		s.notifyAndDrop(m.ID)
	}
}
