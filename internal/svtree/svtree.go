// Package svtree implements the paper's motivating application (§4): a
// scalable event-delivery service built from Subscriber/Volunteer
// multicast trees whose distributed state fate-shares through FUSE
// groups.
//
// Each topic has a rendezvous root: the overlay node whose name is
// closest to the topic name. A subscriber attaches by walking the overlay
// route toward the root (the reverse-path-forwarding path) until it meets
// the first node already in the tree - its parent. Content then flows
// root -> subscribers over these direct content-forwarding links,
// bypassing the non-interested nodes the walk passed through.
//
// The FUSE design pattern from the paper: every content-forwarding link
// is guarded by one FUSE group whose members are the link's two endpoints
// plus all the RPF nodes the link bypasses. Any failure - node crash,
// link failure, or voluntary leave (signalled explicitly) - fires the
// group, every holder of related state garbage-collects it, and the
// orphaned subscriber re-attaches with a fresh version number and a fresh
// FUSE group. Version stamps on subscriptions make late-arriving
// notifications harmless, exactly the race resolution §3.3 describes.
package svtree

import (
	"fmt"
	"time"

	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Config tunes the application.
type Config struct {
	// ReattachDelay is how long an orphaned subscriber waits before
	// re-walking the tree (lets overlay repair settle first).
	ReattachDelay time.Duration
	// HopTTL bounds the subscribe/publish walks.
	HopTTL int
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{ReattachDelay: 2 * time.Second, HopTTL: 64}
}

// Service is the per-node SV-tree layer. It sits beside the FUSE layer on
// the same event loop and uses the overlay only through its public
// routing-table interface (NextHop), sending all its own traffic
// directly.
type Service struct {
	env  transport.Env
	ov   *overlay.Node
	fuse *core.Fuse
	cfg  Config
	self overlay.NodeRef

	topics map[string]*topicState

	// GroupSizes records the membership size of every FUSE group this
	// node created for a content link; the §4 statistics read it.
	GroupSizes []int
}

// topicState is this node's involvement in one topic, in any combination
// of roles: subscriber, tree root (rendezvous owner), or bypassed
// volunteer.
type topicState struct {
	name    string
	deliver func(data any)

	subscribed bool
	version    uint64

	// parent is the upstream content link (zero for the root or while
	// detached).
	parent     overlay.NodeRef
	parentG    core.GroupID
	attached   bool
	attachedAt uint64 // version stamp of the active attachment

	// children maps child name -> its content link state.
	children map[string]*childLink

	// bypass holds the FUSE groups guarding links this node is bypassed
	// by (volunteer state to garbage-collect on notification).
	bypass map[core.GroupID]bool

	lastSeq map[string]uint64 // publisher -> seq for duplicate suppression
}

type childLink struct {
	child   overlay.NodeRef
	group   core.GroupID
	version uint64
}

// New creates the service.
func New(env transport.Env, ov *overlay.Node, fuse *core.Fuse, cfg Config) *Service {
	return &Service{
		env:    env,
		ov:     ov,
		fuse:   fuse,
		cfg:    cfg,
		self:   ov.Self(),
		topics: make(map[string]*topicState),
	}
}

func (s *Service) topic(name string) *topicState {
	t, ok := s.topics[name]
	if !ok {
		t = &topicState{
			name:     name,
			children: make(map[string]*childLink),
			bypass:   make(map[core.GroupID]bool),
			lastSeq:  make(map[string]uint64),
		}
		s.topics[name] = t
	}
	return t
}

// isOwner reports whether this node is the topic's rendezvous root: the
// overlay has no next hop toward the topic name.
func (s *Service) isOwner(topic string) bool {
	_, ok := s.ov.NextHop(topic)
	return !ok
}

// Subscribe attaches this node to the topic's tree and delivers published
// events to deliver. Re-subscribing replaces the delivery function.
func (s *Service) Subscribe(topic string, deliver func(data any)) {
	t := s.topic(topic)
	t.deliver = deliver
	if t.subscribed {
		return
	}
	t.subscribed = true
	if s.isOwner(topic) {
		t.attached = true // the root is trivially attached
		return
	}
	s.attach(t)
}

// attach starts a fresh walk toward the root with a new version stamp.
func (s *Service) attach(t *topicState) {
	if !t.subscribed || t.attached {
		return
	}
	t.version++
	v := t.version
	msg := &msgSubscribe{
		Topic:      t.name,
		Subscriber: s.self,
		Version:    v,
		Path:       []overlay.NodeRef{s.self},
		TTL:        s.cfg.HopTTL,
	}
	s.forwardSubscribe(msg)
}

// forwardSubscribe advances a subscription walk from this node: adopt the
// subscriber if this node is in the tree (or the root), otherwise step to
// the next overlay hop.
func (s *Service) forwardSubscribe(m *msgSubscribe) {
	t := s.topic(m.Topic)
	inTree := (t.subscribed && t.attached) || s.isOwner(m.Topic)
	if inTree && m.Subscriber.Name != s.self.Name {
		s.adopt(t, m)
		return
	}
	next, ok := s.ov.NextHop(m.Topic)
	if !ok || m.TTL <= 0 {
		// Walk died (routing hole): tell the subscriber to retry.
		s.env.Send(m.Subscriber.Addr, &msgAttachFailed{Topic: m.Topic, Version: m.Version})
		return
	}
	if m.Subscriber.Name != s.self.Name {
		m.Path = append(m.Path, s.self) // we become a bypassed volunteer
	}
	m.TTL--
	s.env.Send(next.Addr, m)
}

// adopt creates the content link and its guarding FUSE group: members are
// the subscriber, the bypassed path nodes, and this parent.
func (s *Service) adopt(t *topicState, m *msgSubscribe) {
	members := append(append([]overlay.NodeRef{}, m.Path...), s.self)
	s.fuse.CreateGroup(members, func(id core.GroupID, err error) {
		if err != nil {
			s.env.Send(m.Subscriber.Addr, &msgAttachFailed{Topic: m.Topic, Version: m.Version})
			return
		}
		s.GroupSizes = append(s.GroupSizes, len(members))
		t.children[m.Subscriber.Name] = &childLink{child: m.Subscriber, group: id, version: m.Version}
		s.fuse.RegisterFailureHandler(func(core.Notice) { s.childLinkFailed(t, m.Subscriber.Name, id) }, id)
		s.env.Send(m.Subscriber.Addr, &msgAdopted{Topic: m.Topic, Version: m.Version, Parent: s.self, Group: id})
		// Tell the bypassed volunteers what state to guard.
		for _, p := range m.Path[1:] {
			s.env.Send(p.Addr, &msgLinkInfo{Topic: m.Topic, Group: id})
		}
	})
}

// childLinkFailed garbage-collects a failed downstream link. The child is
// responsible for re-attaching (it holds the subscription intent); if the
// child is dead no replacement is needed - the paper's division of
// repair labor.
func (s *Service) childLinkFailed(t *topicState, childName string, id core.GroupID) {
	if cl, ok := t.children[childName]; ok && cl.group == id {
		delete(t.children, childName)
	}
}

// parentLinkFailed garbage-collects a failed upstream link and schedules
// re-attachment.
func (s *Service) parentLinkFailed(t *topicState, version uint64) {
	if t.attachedAt != version || !t.attached {
		return // a stale notification for a link we already replaced
	}
	t.attached = false
	t.parent = overlay.NodeRef{}
	t.parentG = core.GroupID{}
	if !t.subscribed {
		return
	}
	s.env.After(s.cfg.ReattachDelay, func() { s.attach(t) })
}

// Unsubscribe leaves the tree voluntarily by signalling the FUSE groups
// that would have fired had this node crashed (§4: "we explicitly signal
// the FUSE group... causing the appropriate repairs to occur").
func (s *Service) Unsubscribe(topic string) {
	t, ok := s.topics[topic]
	if !ok || !t.subscribed {
		return
	}
	t.subscribed = false
	t.deliver = nil
	if t.attached && !t.parentG.IsZero() {
		s.fuse.SignalFailure(t.parentG)
	}
	for _, cl := range t.children {
		s.fuse.SignalFailure(cl.group)
	}
	t.attached = false
}

// Publish sends data to every subscriber of topic. The event walks to the
// rendezvous root and fans out over content links.
func (s *Service) Publish(topic string, data any) {
	t := s.topic(topic)
	seq := t.lastSeq[s.self.Name] + 1
	t.lastSeq[s.self.Name] = seq
	s.routePublish(&msgPublish{Topic: topic, Publisher: s.self.Name, Seq: seq, Data: data, TTL: s.cfg.HopTTL})
}

func (s *Service) routePublish(m *msgPublish) {
	next, ok := s.ov.NextHop(m.Topic)
	if !ok {
		// This node is the root: fan out (and deliver locally if
		// subscribed).
		s.disseminate(m)
		return
	}
	if m.TTL <= 0 {
		return
	}
	m.TTL--
	s.env.Send(next.Addr, m)
}

// disseminate delivers locally and forwards down all content links.
func (s *Service) disseminate(m *msgPublish) {
	t := s.topic(m.Topic)
	if t.lastSeq[m.Publisher] >= m.Seq && m.Publisher != s.self.Name {
		return // duplicate
	}
	t.lastSeq[m.Publisher] = m.Seq
	if t.subscribed && t.deliver != nil {
		t.deliver(m.Data)
	}
	for _, cl := range t.children {
		s.env.Send(cl.child.Addr, &msgContent{Topic: m.Topic, Publisher: m.Publisher, Seq: m.Seq, Data: m.Data})
	}
}

// Subscribed reports whether this node is attached (or is the root) for
// the topic.
func (s *Service) Subscribed(topic string) bool {
	t, ok := s.topics[topic]
	return ok && t.subscribed
}

// Attached reports whether the node currently has a live path to the
// tree.
func (s *Service) Attached(topic string) bool {
	t, ok := s.topics[topic]
	return ok && t.attached
}

func (s *Service) logf(format string, args ...any) {
	s.env.Logf("svtree %s: %s", s.self.Name, fmt.Sprintf(format, args...))
}
