package fuse

import (
	"context"
	"fmt"
	"math"
	"time"

	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/telemetry"
	"fuse/internal/transport"
	"fuse/internal/transport/tcpnet"
)

// NodeConfig configures a live FUSE node.
type NodeConfig struct {
	// Name is the node's stable overlay name (e.g. its DNS name). It
	// must be unique in the deployment.
	Name string

	// Bind is the TCP listen address, e.g. ":7946" or "127.0.0.1:0".
	Bind string

	// Bootstrap is an existing member to join through. Leave zero to
	// start a new overlay.
	Bootstrap Peer

	// TimeScale is the node's one timing knob: it multiplies every
	// protocol timeout (ping interval and timeout, link check, creation
	// and repair timeouts), which are otherwise the paper's constants.
	// 1.0 (or 0) gives the paper's timing: 60 s ping period, 20 s ping
	// timeout, 1 min member / 2 min root repair timeouts. Any other value
	// must be positive and finite. Small deployments and tests use small
	// values to detect failures faster at the cost of more ping traffic.
	TimeScale float64
}

// Node is a live FUSE participant over TCP.
type Node struct {
	tn   *tcpnet.Node
	ov   *overlay.Node
	fuse *core.Fuse
	self Peer
	tele *telemetry.Registry
}

// Start launches a live node: it binds the listener, joins the overlay
// through cfg.Bootstrap (if any), and begins participating in liveness
// checking.
func Start(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fuse: NodeConfig.Name is required")
	}
	scale := cfg.TimeScale
	switch {
	case scale == 0:
		scale = 1
	case !(scale > 0) || math.IsInf(scale, 1):
		return nil, fmt.Errorf("fuse: NodeConfig.TimeScale is %v; want a positive finite multiplier, or 0 for the paper's timing", scale)
	}
	tn, err := tcpnet.Listen(cfg.Bind, int64(len(cfg.Name))^time.Now().UnixNano())
	if err != nil {
		return nil, err
	}

	// Live telemetry: one lane, attached before the protocol stacks are
	// built so they resolve it from the env. Its epoch is the instant the
	// node's Elapsed counts from, so a trace's offsets are that clock.
	reg := telemetry.New(time.Now().Add(-tn.Elapsed()), 1)
	tn.SetTelemetry(reg)

	ov := overlay.New(tn, overlay.DefaultConfig().Scale(scale), cfg.Name)
	fu := core.New(tn, ov, scale)
	n := &Node{tn: tn, ov: ov, fuse: fu, self: ov.Self(), tele: reg}
	tn.SetHandler(func(from transport.Addr, msg transport.Message) {
		if !ov.Handle(from, msg) {
			fu.Handle(from, msg)
		}
	})
	if !cfg.Bootstrap.IsZero() {
		n.post(func() { ov.Join(cfg.Bootstrap) })
	}
	return n, nil
}

// post runs fn on the node's event loop.
func (n *Node) post(fn func()) { n.tn.After(0, fn) }

// Ref returns this node's identity, suitable for other nodes' member
// lists and Bootstrap fields.
func (n *Node) Ref() Peer { return n.self }

// Telemetry exposes the node's metrics registry (fused serves it over
// HTTP and flushes a final snapshot on shutdown).
func (n *Node) Telemetry() *telemetry.Registry { return n.tele }

// CreateGroup creates a FUSE group over members (this node is always
// included) and blocks until creation completes: on success every member
// was alive and monitored when it returned (the paper's blocking-create
// semantics). The context bounds the wait beyond the protocol's own
// creation timeout.
func (n *Node) CreateGroup(ctx context.Context, members []Peer) (GroupID, error) {
	type outcome struct {
		id  GroupID
		err error
	}
	ch := make(chan outcome, 1)
	n.post(func() {
		n.fuse.CreateGroup(members, func(id GroupID, err error) {
			ch <- outcome{id, err}
		})
	})
	select {
	case out := <-ch:
		return out.id, out.err
	case <-ctx.Done():
		return GroupID{}, ctx.Err()
	}
}

// RegisterFailureHandler registers a failure callback for id. If the
// group is unknown - for instance because a notification already fired -
// the handler is invoked immediately. Handlers run on the node's event
// loop.
func (n *Node) RegisterFailureHandler(h Handler, id GroupID) {
	n.post(func() { n.fuse.RegisterFailureHandler(h, id) })
}

// SignalFailure explicitly triggers a failure notification for id; every
// live member of the group will hear it.
func (n *Node) SignalFailure(id GroupID) {
	n.post(func() { n.fuse.SignalFailure(id) })
}

// LiveGroups reports the groups this node currently holds state for.
func (n *Node) LiveGroups() []GroupID {
	ch := make(chan []GroupID, 1)
	n.post(func() { ch <- n.fuse.LiveGroups() })
	return <-ch
}

// Neighbors reports the node's current overlay routing-table neighbors
// (the links its liveness checking rides on).
func (n *Node) Neighbors() []Peer {
	ch := make(chan []Peer, 1)
	n.post(func() { ch <- n.ov.Neighbors() })
	return <-ch
}

// Close stops the node. Groups it belonged to will observe its absence
// and notify their members.
func (n *Node) Close() {
	done := make(chan struct{})
	n.post(func() {
		n.ov.Stop()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	n.tn.Close()
}
