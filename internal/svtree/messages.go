package svtree

import (
	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Wire messages. Each embeds the transport marker (via the unexported
// alias, kept off the wire) and joins the transport.Message union as a
// pointer record.
type body = transport.Body

// msgSubscribe walks hop-by-hop toward the topic root, accumulating the
// bypassed path (the overlay's visible routing table supplies each hop).
type msgSubscribe struct {
	body
	Topic      string
	Subscriber overlay.NodeRef
	Version    uint64
	Path       []overlay.NodeRef
	TTL        int
}

// msgAdopted tells the subscriber its walk succeeded: the parent created
// the content link and its guarding FUSE group.
type msgAdopted struct {
	body
	Topic   string
	Version uint64
	Parent  overlay.NodeRef
	Group   core.GroupID
}

// msgAttachFailed tells the subscriber its walk died; it retries after
// the reattach delay.
type msgAttachFailed struct {
	body
	Topic   string
	Version uint64
}

// msgLinkInfo gives a bypassed volunteer the FUSE ID guarding the link
// through it, so it can garbage-collect on notification.
type msgLinkInfo struct {
	body
	Topic string
	Group core.GroupID
}

// msgPublish walks an event toward the topic root.
type msgPublish struct {
	body
	Topic     string
	Publisher string
	Seq       uint64
	Data      any
	TTL       int
}

// msgContent carries an event down a content link.
type msgContent struct {
	body
	Topic     string
	Publisher string
	Seq       uint64
	Data      any
}

func init() {
	transport.Register("svtree.subscribe", func() transport.Message { return new(msgSubscribe) })
	transport.Register("svtree.adopted", func() transport.Message { return new(msgAdopted) })
	transport.Register("svtree.attachFailed", func() transport.Message { return new(msgAttachFailed) })
	transport.Register("svtree.linkInfo", func() transport.Message { return new(msgLinkInfo) })
	transport.Register("svtree.publish", func() transport.Message { return new(msgPublish) })
	transport.Register("svtree.content", func() transport.Message { return new(msgContent) })
}

// Handle dispatches a transport message; false means "not ours".
func (s *Service) Handle(from transport.Addr, msg transport.Message) bool {
	switch m := msg.(type) {
	case *msgSubscribe:
		s.forwardSubscribe(m)
	case *msgAdopted:
		s.handleAdopted(m)
	case *msgAttachFailed:
		s.handleAttachFailed(m)
	case *msgLinkInfo:
		s.handleLinkInfo(m)
	case *msgPublish:
		s.routePublish(m)
	case *msgContent:
		s.disseminate(&msgPublish{Topic: m.Topic, Publisher: m.Publisher, Seq: m.Seq, Data: m.Data})
	default:
		return false
	}
	return true
}

func (s *Service) handleAdopted(m *msgAdopted) {
	t := s.topic(m.Topic)
	if m.Version != t.version || !t.subscribed {
		// A stale adoption (we already moved on): disown it so the
		// parent cleans up.
		s.fuse.SignalFailure(m.Group)
		return
	}
	t.attached = true
	t.attachedAt = m.Version
	t.parent = m.Parent
	t.parentG = m.Group
	v := m.Version
	s.fuse.RegisterFailureHandler(func(core.Notice) { s.parentLinkFailed(t, v) }, m.Group)
}

func (s *Service) handleAttachFailed(m *msgAttachFailed) {
	t := s.topic(m.Topic)
	if m.Version != t.version || t.attached || !t.subscribed {
		return
	}
	s.env.After(reattachDelay, func() { s.attach(t) })
}

// handleLinkInfo installs volunteer state guarded by the link's group.
func (s *Service) handleLinkInfo(m *msgLinkInfo) {
	t := s.topic(m.Topic)
	t.bypass[m.Group] = true
	s.fuse.RegisterFailureHandler(func(core.Notice) {
		delete(t.bypass, m.Group)
		s.maybeForget(t)
	}, m.Group)
}

// maybeForget drops the whole topic record once this node holds no state
// for it (pure garbage collection).
func (s *Service) maybeForget(t *topicState) {
	if !t.subscribed && !t.attached && len(t.children) == 0 && len(t.bypass) == 0 {
		delete(s.topics, t.name)
	}
}
