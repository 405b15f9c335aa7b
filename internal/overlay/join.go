package overlay

import "sort"

// Join protocol and static assembly.
//
// A node joins by routing a lookup for its own name through any existing
// member; routing stops at the joiner's future predecessor, which returns
// its leaf sets. The joiner splices itself into the level-0 ring, then
// builds its higher ring pointers level by level with ring searches.
//
// AssembleStatic wires a whole population's tables directly, without
// messages, for experiment setups that start from a converged overlay
// (the paper's cluster runs also start all 400 nodes before measuring).

// Join inserts this node into the overlay reachable via bootstrap. With an
// empty bootstrap address the node becomes the first member of a new
// overlay. Join is asynchronous; the node is integrated once the join
// lookup's reply and subsequent announcements are processed.
func (n *Node) Join(bootstrap NodeRef) {
	if bootstrap.IsZero() || bootstrap.Addr == n.self.Addr {
		return // first node: nothing to do until others join via us
	}
	n.sendJoinLookup(bootstrap)
}

func (n *Node) sendJoinLookup(bootstrap NodeRef) {
	if n.stopped {
		return
	}
	n.joining = true
	n.env.Send(bootstrap.Addr, &msgRoute{
		Dest:    n.self.Name,
		Origin:  n.self,
		LastHop: n.self,
		TTL:     routeTTL,
		Inner:   &msgJoinLookup{Joiner: n.self},
	})
	// Retry while not integrated: the bootstrap node or the reply can be
	// lost. Integration is observable as a non-empty leaf set.
	n.env.After(n.cfg.PingTimeout, func() {
		if len(n.leafR) == 0 {
			n.sendJoinLookup(bootstrap)
		}
	})
}

// handleJoinReply integrates the node from the first reply to its join
// lookup. Any other reply - a retried lookup's second one, or one nobody
// asked for - is dropped, so the announcements go out once per join.
func (n *Node) handleJoinReply(m *msgJoinReply) {
	if !n.joining {
		return
	}
	n.joining = false
	n.considerLeaf(m.Pred)
	for _, r := range m.LeafR {
		n.considerLeaf(r)
	}
	for _, r := range m.LeafL {
		n.considerLeaf(r)
	}
	// Announce ourselves to everyone we now consider a level-0 neighbor;
	// they splice us into their leaf sets and reply with their own views.
	for _, r := range n.Neighbors() {
		n.env.Send(r.Addr, &msgLevel0Insert{Node: n.self})
	}
	// Begin constructing ring pointers bottom-up.
	n.startRingSearch(1, true)
	n.startRingSearch(1, false)
}

// AssembleStatic wires the routing tables of an entire population in
// place: sorted leaf sets at level 0 and per-prefix rings above, exactly
// the converged state the join protocol reaches. It then starts liveness
// pinging on every node.
func AssembleStatic(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.Name < sorted[j].self.Name })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].self.Name == sorted[i-1].self.Name {
			panic("overlay: duplicate node name " + sorted[i].self.Name)
		}
	}

	// Level 0: leaf sets from the global sorted order.
	total := len(sorted)
	for i, nd := range sorted {
		half := leafSize / 2
		nd.leafR = nd.leafR[:0]
		nd.leafL = nd.leafL[:0]
		for k := 1; k <= half && k < total; k++ {
			nd.leafR = append(nd.leafR, sorted[(i+k)%total].self)
			nd.leafL = append(nd.leafL, sorted[(i-k+total)%total].self)
		}
	}

	// Higher levels: group members by numeric-ID prefix; each group of
	// two or more forms a ring in name order.
	group := make(map[string][]*Node)
	for h := 1; h <= maxLevels; h++ {
		clear(group)
		any := false
		for _, nd := range sorted {
			key := string(nd.digits[:h])
			group[key] = append(group[key], nd)
		}
		for _, members := range group {
			if len(members) < 2 {
				continue
			}
			any = true
			// members is already name-sorted (stable from sorted).
			for i, nd := range members {
				*nd.ringSlot(h, true) = members[(i+1)%len(members)].self
				*nd.ringSlot(h, false) = members[(i-1+len(members))%len(members)].self
			}
		}
		if !any {
			break
		}
	}

	for _, nd := range sorted {
		nd.syncPings()
	}
}
