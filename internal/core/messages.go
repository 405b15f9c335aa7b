package core

import (
	"encoding/binary"

	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Wire messages, named as in §6 of the paper. Each embeds the transport
// marker through the unexported alias (kept off the wire) and travels as
// a pointer through the transport.Message union.
type body = transport.Body

// msgGroupCreateRequest is sent directly from the root to every member.
type msgGroupCreateRequest struct {
	body
	ID      GroupID
	Members []overlay.NodeRef
}

// msgGroupCreateReply is the member's direct answer.
type msgGroupCreateReply struct {
	body
	ID     GroupID
	Member overlay.NodeRef
}

// msgInstallChecking is routed through the overlay from a member toward
// the root, installing delegate timers at every hop.
type msgInstallChecking struct {
	body
	ID     GroupID
	Seq    uint64
	Member overlay.NodeRef
}

// msgSoftNotification spreads through the liveness-checking tree when a
// link fails; it cleans up delegate state and prompts members and the root
// to repair. It never reaches the application.
type msgSoftNotification struct {
	body
	ID   GroupID
	Seq  uint64
	From overlay.NodeRef
	// Trace is the telemetry span of the failure observation that
	// started this spread; 0 when tracing is off. Carried for causal
	// trigger→delivery chains only — never read by protocol logic.
	Trace uint64
}

// msgHardNotification is the application-visible failure notification,
// fanned member -> root -> members over direct connections.
type msgHardNotification struct {
	body
	ID   GroupID
	From overlay.NodeRef
	// Trace carries the causal span like msgSoftNotification.Trace.
	Trace uint64
}

// msgNeedRepair is a member's direct request that the root rebuild the
// checking tree.
type msgNeedRepair struct {
	body
	ID     GroupID
	Seq    uint64
	Member overlay.NodeRef
}

// msgGroupRepairRequest is the root's direct probe to each member during
// repair; it carries the incremented sequence number.
type msgGroupRepairRequest struct {
	body
	ID  GroupID
	Seq uint64
}

// msgGroupRepairReply is the member's direct answer to a repair request.
type msgGroupRepairReply struct {
	body
	ID     GroupID
	Seq    uint64
	Member overlay.NodeRef
}

// msgGroupLists reconciles two neighbors' views of which groups they
// jointly monitor after a piggyback hash mismatch.
type msgGroupLists struct {
	body
	From    overlay.NodeRef
	Entries []listEntry
	IsReply bool
}

type listEntry struct {
	ID  GroupID
	Seq uint64
}

// The live fast path's core records - install, soft and hard
// notification - write their own wire bodies (transport.Wire): fields in
// declaration order, a GroupID as its root's NodeRef then its number.

func appendGroupID(b []byte, id GroupID) []byte {
	b = overlay.AppendNodeRef(b, id.Root)
	return binary.AppendUvarint(b, id.Num)
}

func parseGroupID(p *transport.Parser) GroupID {
	root := overlay.ParseNodeRef(p)
	return GroupID{Root: root, Num: p.Uvarint()}
}

func (m *msgInstallChecking) AppendWire(b []byte) ([]byte, error) {
	b = appendGroupID(b, m.ID)
	b = binary.AppendUvarint(b, m.Seq)
	return overlay.AppendNodeRef(b, m.Member), nil
}

func (m *msgInstallChecking) ParseWire(p *transport.Parser) {
	m.ID = parseGroupID(p)
	m.Seq = p.Uvarint()
	m.Member = overlay.ParseNodeRef(p)
}

func (m *msgSoftNotification) AppendWire(b []byte) ([]byte, error) {
	b = appendGroupID(b, m.ID)
	b = binary.AppendUvarint(b, m.Seq)
	b = overlay.AppendNodeRef(b, m.From)
	return binary.AppendUvarint(b, m.Trace), nil
}

func (m *msgSoftNotification) ParseWire(p *transport.Parser) {
	m.ID = parseGroupID(p)
	m.Seq = p.Uvarint()
	m.From = overlay.ParseNodeRef(p)
	m.Trace = p.Uvarint()
}

func (m *msgHardNotification) AppendWire(b []byte) ([]byte, error) {
	b = appendGroupID(b, m.ID)
	b = overlay.AppendNodeRef(b, m.From)
	return binary.AppendUvarint(b, m.Trace), nil
}

func (m *msgHardNotification) ParseWire(p *transport.Parser) {
	m.ID = parseGroupID(p)
	m.From = overlay.ParseNodeRef(p)
	m.Trace = p.Uvarint()
}

var (
	_ transport.Wire = (*msgInstallChecking)(nil)
	_ transport.Wire = (*msgSoftNotification)(nil)
	_ transport.Wire = (*msgHardNotification)(nil)
)

func init() {
	transport.Register("core.groupCreateRequest", func() transport.Message { return new(msgGroupCreateRequest) })
	transport.Register("core.groupCreateReply", func() transport.Message { return new(msgGroupCreateReply) })
	transport.Register("core.installChecking", func() transport.Message { return new(msgInstallChecking) })
	transport.Register("core.softNotification", func() transport.Message { return new(msgSoftNotification) })
	transport.Register("core.hardNotification", func() transport.Message { return new(msgHardNotification) })
	transport.Register("core.needRepair", func() transport.Message { return new(msgNeedRepair) })
	transport.Register("core.groupRepairRequest", func() transport.Message { return new(msgGroupRepairRequest) })
	transport.Register("core.groupRepairReply", func() transport.Message { return new(msgGroupRepairReply) })
	transport.Register("core.groupLists", func() transport.Message { return new(msgGroupLists) })
}

// Handle dispatches a direct (non-overlay-routed) message to the FUSE
// layer, returning false if the message belongs to another protocol.
func (f *Fuse) Handle(from transport.Addr, msg transport.Message) bool {
	switch m := msg.(type) {
	case *msgGroupCreateRequest:
		f.handleCreateRequest(m)
	case *msgGroupCreateReply:
		f.handleCreateReply(m)
	case *msgSoftNotification:
		f.handleSoft(m)
	case *msgHardNotification:
		f.handleHard(m)
	case *msgNeedRepair:
		f.handleNeedRepair(m)
	case *msgGroupRepairRequest:
		f.handleRepairRequest(m)
	case *msgGroupRepairReply:
		f.handleRepairReply(m)
	case *msgGroupLists:
		f.handleGroupLists(m)
	default:
		return false
	}
	return true
}
