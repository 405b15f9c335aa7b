package overlay

import (
	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// Routing: clockwise greedy routing by name. At each hop the node picks,
// among its routing-table entries, the one that makes the most clockwise
// progress toward the destination without passing it. The higher-level
// ring pointers provide the long jumps (expected O(log n) hops); the leaf
// set finishes the last steps and guarantees progress.

// NextHop computes where this node would forward a message addressed to
// dest. ok is false when this node is itself the closest live node (either
// it is the destination, or the destination is absent from the overlay).
func (n *Node) NextHop(dest string) (NodeRef, bool) {
	if dest == n.self.Name {
		return NodeRef{}, false
	}
	best := NodeRef{}
	consider := func(r NodeRef) {
		if r.IsZero() || r.Name == n.self.Name {
			return
		}
		// r must lie in (self, dest] clockwise: progress without
		// overshoot.
		if r.Name != dest && !betweenCW(n.self.Name, r.Name, dest) {
			return
		}
		if best.IsZero() || cwDist(n.self.Name, best.Name, r.Name) < 0 {
			best = r
		}
	}
	for _, r := range n.leafR {
		consider(r)
	}
	for _, r := range n.leafL {
		consider(r)
	}
	for h := 1; h < len(n.rights); h++ {
		consider(n.rights[h])
		consider(n.lefts[h])
	}
	if best.IsZero() {
		return NodeRef{}, false
	}
	return best, true
}

// RouteTo injects a client message into the overlay addressed to the node
// named dest. It returns the first hop taken. ok is false when the message
// could not leave this node: either dest is this node itself (the message
// is delivered locally via an immediate upcall) or no next hop exists.
//
// The first-hop return value is how FUSE learns the first link of an
// InstallChecking path so the sending member can monitor it.
func (n *Node) RouteTo(dest string, inner transport.Message) (first NodeRef, ok bool) {
	if dest == n.self.Name {
		self := n.self
		n.env.After(0, func() {
			n.client.OnRouteMessage(inner, RouteInfo{
				Origin: self, Dest: dest, Arrived: true,
			})
		})
		return NodeRef{}, false
	}
	next, ok := n.NextHop(dest)
	if !ok {
		n.env.After(0, func() {
			n.client.OnRouteMessage(inner, RouteInfo{
				Origin: n.self, Dest: dest, Dead: true,
			})
		})
		return NodeRef{}, false
	}
	n.env.Send(next.Addr, &msgRoute{
		Dest:    dest,
		Origin:  n.self,
		LastHop: n.self,
		Hops:    1,
		TTL:     routeTTL,
		Inner:   inner,
	})
	return next, true
}

// handleRoute processes one hop of a routed message: deliver here, forward
// with an upcall, or die here with an upcall.
func (n *Node) handleRoute(m *msgRoute) {
	// Overlay-internal routed payloads are handled without client
	// upcalls.
	if lookup, isJoin := m.Inner.(*msgJoinLookup); isJoin {
		n.routeJoinLookup(m, lookup)
		return
	}

	if m.Dest == n.self.Name {
		n.client.OnRouteMessage(m.Inner, RouteInfo{
			Origin: m.Origin, Dest: m.Dest, Prev: m.LastHop,
			Arrived: true, Hops: m.Hops,
		})
		return
	}

	next, ok := n.NextHop(m.Dest)
	if !ok {
		n.client.OnRouteMessage(m.Inner, RouteInfo{
			Origin: m.Origin, Dest: m.Dest, Prev: m.LastHop,
			Dead: true, Hops: m.Hops,
		})
		return
	}
	if m.TTL <= 0 {
		n.client.OnRouteMessage(m.Inner, RouteInfo{
			Origin: m.Origin, Dest: m.Dest, Prev: m.LastHop,
			Dead: true, Hops: m.Hops,
		})
		return
	}

	n.client.OnRouteMessage(m.Inner, RouteInfo{
		Origin: m.Origin, Dest: m.Dest, Prev: m.LastHop, Next: next,
		Hops: m.Hops,
	})
	n.env.Send(next.Addr, &msgRoute{
		Dest:    m.Dest,
		Origin:  m.Origin,
		LastHop: n.self,
		Hops:    m.Hops + 1,
		TTL:     m.TTL - 1,
		Inner:   m.Inner,
	})
}

// routeJoinLookup forwards a join lookup or, if this node is the closest
// to the joiner's name, answers it with the joiner's future neighborhood.
func (n *Node) routeJoinLookup(m *msgRoute, lookup *msgJoinLookup) {
	if m.Dest == n.self.Name && m.Dest != lookup.Joiner.Name {
		// Name resolution landed on an existing node with the joiner's
		// name: duplicate names are a deployment error.
		if n.tm.lane.Tracing(telemetry.TraceProto) {
			n.tm.lane.Record(n.env.Elapsed(), "join-dropped", n.self.Name, "", 0, 0, lookup.Joiner.Name)
		}
		return
	}
	next, ok := n.NextHop(m.Dest)
	if ok && next.Name == m.Dest {
		// Our tables still hold the joiner's previous incarnation (it
		// crashed and is rejoining before its old entries timed out).
		// Forwarding the lookup to the joiner itself would make it
		// answer its own join; treat the stale entry as absent - this
		// node is the true predecessor.
		ok = false
	}
	if !ok || m.TTL <= 0 {
		// This node is the joiner's predecessor-to-be.
		n.env.Send(lookup.Joiner.Addr, &msgJoinReply{
			Pred:  n.self,
			LeafR: append([]NodeRef(nil), n.leafR...),
			LeafL: append([]NodeRef(nil), n.leafL...),
		})
		return
	}
	n.env.Send(next.Addr, &msgRoute{
		Dest:    m.Dest,
		Origin:  m.Origin,
		LastHop: n.self,
		Hops:    m.Hops + 1,
		TTL:     m.TTL - 1,
		Inner:   lookup,
	})
}
