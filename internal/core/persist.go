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

import (
	"fmt"
	"sort"
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

// Persistence stores group memberships across crashes. Implementations
// must tolerate duplicate saves and deletes of absent records.
type Persistence interface {
	SaveGroup(rec GroupRecord) error
	DeleteGroup(id GroupID) error
	LoadGroups() ([]GroupRecord, error)
}

// SetPersistence attaches stable storage to this node. Call before the
// node starts participating; combine with Recover to resume groups
// recorded by a previous incarnation.
func (f *Fuse) SetPersistence(p Persistence) { f.persist = p }

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
func (f *Fuse) Recover() error {
	if f.persist == nil {
		return nil
	}
	recs, err := f.persist.LoadGroups()
	if err != nil {
		return fmt.Errorf("fuse recover: %w", err)
	}
	for _, rec := range recs {
		if rec.IsRoot {
			rs := &rootState{
				id:      rec.ID,
				seq:     rec.Seq,
				members: rec.Members,
				backoff: f.cfg.RepairBackoffInitial,
			}
			f.roots[rec.ID] = rs
			if len(rs.members) > 0 {
				f.scheduleRepair(rs)
			}
			continue
		}
		ms := &memberState{id: rec.ID, seq: rec.Seq, root: rec.ID.Root}
		f.members[rec.ID] = ms
		f.memberNeedsRepair(ms)
	}
	f.recoverUntil = f.env.Now().Add(f.cfg.CheckTimeout)
	for _, nb := range f.ov.Neighbors() {
		f.sendReconcileProbe(nb)
	}
	return nil
}

// saveMember records a member-role membership if persistence is attached.
func (f *Fuse) saveMember(ms *memberState) {
	if f.persist == nil {
		return
	}
	if err := f.persist.SaveGroup(GroupRecord{ID: ms.id, Seq: ms.seq}); err != nil {
		f.logf("persist save %s: %v", ms.id, err)
	}
}

// saveRoot records a root-role membership if persistence is attached.
func (f *Fuse) saveRoot(rs *rootState) {
	if f.persist == nil {
		return
	}
	rec := GroupRecord{ID: rs.id, Seq: rs.seq, IsRoot: true, Members: rs.members}
	if err := f.persist.SaveGroup(rec); err != nil {
		f.logf("persist save %s: %v", rs.id, err)
	}
}

// forget removes a durable record if persistence is attached.
func (f *Fuse) forget(id GroupID) {
	if f.persist == nil {
		return
	}
	if err := f.persist.DeleteGroup(id); err != nil {
		f.logf("persist delete %s: %v", id, err)
	}
}

// --- in-memory store (tests, and nodes that want crash-masking only
// within one process lifetime) ---

// MemStore is a Persistence kept in process memory. It is safe for
// concurrent use so a test can hand one store to successive node
// incarnations.
type MemStore struct {
	mu   sync.Mutex
	recs map[GroupID]GroupRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{recs: make(map[GroupID]GroupRecord)} }

// SaveGroup implements Persistence.
func (s *MemStore) SaveGroup(rec GroupRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[rec.ID] = rec
	return nil
}

// DeleteGroup implements Persistence.
func (s *MemStore) DeleteGroup(id GroupID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recs, id)
	return nil
}

// LoadGroups implements Persistence; records are returned in a stable
// order so recovery is deterministic.
func (s *MemStore) LoadGroups() ([]GroupRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GroupRecord, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Root.Name != out[j].ID.Root.Name {
			return out[i].ID.Root.Name < out[j].ID.Root.Name
		}
		return out[i].ID.Num < out[j].ID.Num
	})
	return out, nil
}
