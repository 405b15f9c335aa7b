package core

// Optional stable storage (§3.6): the paper's baseline implementation
// keeps no durable state, so a recovering node has forgotten its groups
// and the active comparison of FUSE IDs fails them. As the paper notes,
// "an alternative FUSE implementation could use stable storage to attempt
// to mask brief node crashes": a node that records its group memberships
// can resume them on restart, answer repair probes, and keep the groups
// alive. Nodes with and without stable storage interoperate with no
// protocol change - exactly the compatibility property §3.6 claims -
// because recovery works entirely through the existing repair and
// reconciliation paths.
//
// The store is a MemStore, which outlives a simulated node's crash
// because the deployment, not the stack, holds it. It cannot fail, so
// neither saving nor recovery has an error path.

import (
	"slices"
	"sync"

	"fuse/internal/overlay"
)

// GroupRecord is the durable form of one group membership.
type GroupRecord struct {
	ID      GroupID
	Seq     uint64
	IsRoot  bool
	Members []overlay.NodeRef // root role only
}

// SetPersistence attaches stable storage to this node. Call before the
// node starts participating; combine with Recover to resume groups
// recorded by a previous incarnation.
func (f *Fuse) SetPersistence(s *MemStore) { f.persist = s }

// Recover reloads every recorded group and rejoins its monitoring:
// members prod their roots for a repair (which rebuilds the checking
// tree), roots re-run a repair round themselves. Groups that failed while
// this node was down resolve through the normal paths - a repair probe
// reaching a node that answers "unknown group" produces the
// HardNotification the paper's semantics require.
//
// Recover also opens a reconciliation window one CheckTimeout long:
// every current overlay neighbor is probed with our group list for the
// link right away, and neighbors acquired later (the overlay rejoin is
// still converging when Recover runs) are probed as they appear. The
// probes let neighbors that still monitor pre-crash delegate state
// across a link to this node tear it down and trigger the repairs that
// rebuild the per-link checking registry here, instead of discovering
// the mismatch one ping exchange (or one CheckTimeout) later.
func (f *Fuse) Recover() {
	if f.persist == nil {
		return
	}
	for _, rec := range f.persist.LoadGroups() {
		g := f.withRole(rec.ID)
		if rec.IsRoot {
			g.role.root = &rootState{seq: rec.Seq, members: rec.Members, backoff: f.scaled(backoffInitial)}
			if len(rec.Members) > 0 {
				f.scheduleRepair(g)
			}
			continue
		}
		g.role.member = &memberState{seq: rec.Seq}
		f.memberNeedsRepair(g)
	}
	f.recoverUntil = f.env.Elapsed() + f.scaled(checkTimeout)
	for _, nb := range f.ov.Neighbors() {
		f.sendReconcileProbe(nb)
	}
}

// saveMember records g's member-role membership if persistence is
// attached.
func (f *Fuse) saveMember(g *groupState) {
	if f.persist != nil {
		f.persist.SaveGroup(GroupRecord{ID: g.id, Seq: g.role.member.seq})
	}
}

// saveRoot records g's root-role membership if persistence is attached.
func (f *Fuse) saveRoot(g *groupState) {
	if f.persist != nil {
		rs := g.role.root
		f.persist.SaveGroup(GroupRecord{ID: g.id, Seq: rs.seq, IsRoot: true, Members: rs.members})
	}
}

// forget removes a durable record if persistence is attached.
func (f *Fuse) forget(id GroupID) {
	if f.persist != nil {
		f.persist.DeleteGroup(id)
	}
}

// MemStore is a node's stable storage, kept in process memory: a
// simulated deployment holds one per node across its crashes and
// restarts. Saves overwrite, deleting an absent record is a no-op, and
// it is safe for concurrent use, so a test can hand one store to
// successive node incarnations.
type MemStore struct {
	mu   sync.Mutex
	recs map[GroupID]GroupRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{recs: make(map[GroupID]GroupRecord)} }

// SaveGroup records rec, replacing any earlier record of its group.
func (s *MemStore) SaveGroup(rec GroupRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[rec.ID] = rec
}

// DeleteGroup removes id's record, if any.
func (s *MemStore) DeleteGroup(id GroupID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recs, id)
}

// LoadGroups returns every record in a stable order, so recovery is
// deterministic.
func (s *MemStore) LoadGroups() []GroupRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GroupRecord, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b GroupRecord) int { return compareIDs(a.ID, b.ID) })
	return out
}
