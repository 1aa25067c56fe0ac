// Package wire defines the RGB protocol's message-plane payloads as a
// closed, wire-typed union together with a versioned, length-prefixed
// binary codec. Every datagram the protocol exchanges — the circulating
// token, parent/child notifications, the acknowledgement control plane,
// membership-change submissions, queries and replies, and the ring
// repair/rejoin/merge control messages — is one of the exported structs
// below, and each encodes to a deterministic byte layout with
// append-style MarshalTo semantics (no reflection, no encoding/gob, no
// allocation on the encode path when the caller reuses its buffer).
//
// The union is closed: Payload has an unexported method, so only this
// package can add payload kinds. That is deliberate — the datagram
// format is part of the protocol contract (the same position taken by
// Rapid and by the coordinated-broadcast group-management literature),
// and a payload that cannot be encoded must not be able to enter the
// transport.
//
// The same payload values flow through all three runtime substrates:
// the deterministic simulator and the live in-process runtime hand them
// across as Go values (zero copies, identical to the pre-wire message
// plane), while the networked UDP runtime encodes them through this
// codec at every hop.
//
// The datagram envelope carries the owning GroupID, so one socket can
// serve many concurrent groups: the receiver demultiplexes each frame
// to the engine shard owning the tagged group.
package wire

import (
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// PayloadKind identifies one payload type on the wire. Kind values are
// part of the wire format: never renumber, only append.
type PayloadKind uint8

// Wire payload kinds. KindNone marks an empty (nil) payload.
const (
	KindNone PayloadKind = iota
	KindTokenMsg
	KindMemberChange
	KindNotify
	KindNotifyAck
	KindPassAck
	KindHolderAck
	KindJoinRequest
	KindSnapshot
	KindMergeRequest
	KindQuery
	KindQueryReply
	KindTreeProposal
	KindProbe
	KindPeerHello
	KindPeerList
	numPayloadKinds
)

// String names the payload kind.
func (k PayloadKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindTokenMsg:
		return "token"
	case KindMemberChange:
		return "member-change"
	case KindNotify:
		return "notify"
	case KindNotifyAck:
		return "notify-ack"
	case KindPassAck:
		return "pass-ack"
	case KindHolderAck:
		return "holder-ack"
	case KindJoinRequest:
		return "join-request"
	case KindSnapshot:
		return "snapshot"
	case KindMergeRequest:
		return "merge-request"
	case KindQuery:
		return "query"
	case KindQueryReply:
		return "query-reply"
	case KindTreeProposal:
		return "tree-proposal"
	case KindProbe:
		return "probe"
	case KindPeerHello:
		return "peer-hello"
	case KindPeerList:
		return "peer-list"
	default:
		return "PayloadKind(" + itoa(uint64(k)) + ")"
	}
}

// Payload is the closed union of protocol payloads. Every value that
// crosses a runtime.Transport is one of the exported structs of this
// package; the unexported method keeps the union closed so the wire
// format stays total over the message plane.
type Payload interface {
	// PayloadKind returns the wire identity of the payload.
	PayloadKind() PayloadKind

	// AppendTo appends the payload's body encoding to b and returns
	// the extended slice. It never allocates beyond growing b.
	AppendTo(b []byte) []byte

	// sealed closes the union.
	sealed()
}

// TokenMsg wraps the circulating token of the one-round algorithm.
// In-process substrates pass the pointer; the networked runtime
// serializes the full token, so every process mutates its own copy —
// exactly the hop-by-hop ownership transfer of the paper's Figure 3.
type TokenMsg struct {
	Tok *token.Token
}

// MemberChange is the MH -> AP membership change submission
// (Member-Join/Leave/Handoff/Failure observed at the access proxy).
type MemberChange struct {
	Op     mq.Op
	Member ids.MemberInfo
}

// Notify carries a batch across a ring boundary: up as
// Notification-to-Parent (Up=true, From = notifying ring) or down as
// Notification-to-Child. LeaderUpdate announces a leader change to the
// parent so the parent can fix its Child pointer.
//
// Notify and the three acknowledgements below are pointer payloads: a
// *Notify, *NotifyAck, *PassAck or *HolderAck is the body of one
// message, owned by its sender until Send and by its receiver after, or
// by the transport that encodes it for another process, so an engine
// can recycle it once handled (Bodies). Batch is shared, never written:
// it outlives the struct.
type Notify struct {
	Batch        mq.Batch
	From         ring.ID
	Up           bool
	LeaderUpdate bool
	NewLeader    ids.NodeID
	Seq          uint64 // sender-local sequence for ack matching
}

// NotifyAck acknowledges a Notify (control plane).
type NotifyAck struct {
	Seq uint64
}

// PassAck acknowledges receipt of a token pass (control plane; this is
// the signal whose absence triggers the paper's token retransmission
// scheme). It names the token it acknowledges by (Holder, Round):
// round counters are per holder, so the round alone would let the ack
// of one holder's round k stop the pass of another holder's round k.
type PassAck struct {
	Holder ids.NodeID
	Round  uint64
}

// HolderAck is the Holder-Acknowledgement of Figure 3, sent by the
// round holder to every entity that contributed original messages.
type HolderAck struct {
	Ring  ring.ID
	Round uint64
	Count int // changes covered by this acknowledgement
}

// JoinRequest asks a ring leader to admit a (re)joining network entity
// (NE-Join).
type JoinRequest struct {
	Node ids.NodeID
}

// Tombstone is one removal carried alongside a state snapshot: the
// GUID of a member the sender removed on a leave or a failure, and the
// version it removed it at. A put of that member at the same or an
// older version is stale wherever the tombstone arrives, so a member
// that departed inside one partition fragment is not resurrected by a
// merge; a record at a newer version (a rejoin) outlives it.
type Tombstone struct {
	GUID ids.GUID
	Ver  uint16
}

// Snapshot initializes a rejoining node: current roster, leader, ring
// membership list, and the sender's removal tombstones.
type Snapshot struct {
	Roster  []ids.NodeID
	Leader  ids.NodeID
	Members []ids.MemberInfo

	// Tombstones ends the body on the wire; the section is always
	// present, holding a zero count when there are none.
	Tombstones []Tombstone
}

// MergeRequest carries one ring fragment's state to the leader of
// another fragment for the Membership-Merge extension.
type MergeRequest struct {
	Roster  []ids.NodeID
	Members []ids.MemberInfo

	// Tombstones ends the body on the wire; the section is always
	// present, holding a zero count when there are none.
	Tombstones []Tombstone
}

// Query implements the Membership-Query algorithm. Phase "up" climbs
// to the topmost ring; phase "down" fans out to the target maintenance
// level whose ring leaders reply with their ListOfRingMembers.
type Query struct {
	ID      uint64
	Level   int        // maintenance level to answer from (0 = TMS, H-1 = BMS)
	ReplyTo ids.NodeID // requesting application endpoint
	Down    bool       // false while climbing, true while fanning out

	// Entry and EntryRing identify the node that introduced the
	// downward copy into its current ring, so the ring circulation
	// stops after one full pass regardless of where it entered.
	Entry     ids.NodeID
	EntryRing ring.ID
}

// QueryReply returns one ring's membership to the requester. Members is
// read-only. It is either a copy the replier's ring shares until its list
// changes, or, for a reply the transport encodes before Send returns,
// the list's own slots, valid only until Send returns.
type QueryReply struct {
	ID      uint64
	From    ring.ID
	Members []ids.MemberInfo
}

// TreeProposal is the membership-change message of the tree-based
// (CONGRESS-style) baseline's one-round algorithm. Up marks the
// convergecast phase (LMS toward root); the flood phase sets Up false.
type TreeProposal struct {
	Change mq.Change
	Up     bool
}

// Probe is a liveness/diagnostic payload (used by transport tests and
// health checks); it carries no protocol meaning.
type Probe struct {
	Seq uint64
}

// PeerHello announces a process's endpoint to the discovery plane: the
// cluster slot it claims (-1 = slotless observer) and its advertised
// UDP address. A nonzero Seq requests a PeerList reply echoing the Seq
// (the seed-bootstrap RPC, taschain-pending style); gossiped hellos
// carry Seq 0. An empty Addr means "use the datagram's source address".
type PeerHello struct {
	Seq  uint64
	Slot int32
	Addr string
}

// PeerEntry is one gossiped peer-table row. AgeMillis is how long ago
// the sender last heard from the peer — a relative age survives clock
// skew between processes where an absolute timestamp would not.
type PeerEntry struct {
	Slot      int32
	State     uint8 // discovery.State, carried opaquely
	AgeMillis uint32
	Addr      string
}

// PeerList is a snapshot of the sender's peer table: the deployment
// shape (H, R, Slots) a bootstrapping joiner adopts, plus one entry per
// known peer. Seq echoes the requesting PeerHello's Seq (0 marks an
// unsolicited gossip broadcast).
type PeerList struct {
	Seq   uint64
	H, R  uint16
	Slots uint32
	Peers []PeerEntry
}

// PayloadKind implementations.
func (TokenMsg) PayloadKind() PayloadKind     { return KindTokenMsg }
func (MemberChange) PayloadKind() PayloadKind { return KindMemberChange }
func (*Notify) PayloadKind() PayloadKind      { return KindNotify }
func (*NotifyAck) PayloadKind() PayloadKind   { return KindNotifyAck }
func (*PassAck) PayloadKind() PayloadKind     { return KindPassAck }
func (*HolderAck) PayloadKind() PayloadKind   { return KindHolderAck }
func (JoinRequest) PayloadKind() PayloadKind  { return KindJoinRequest }
func (Snapshot) PayloadKind() PayloadKind     { return KindSnapshot }
func (MergeRequest) PayloadKind() PayloadKind { return KindMergeRequest }
func (Query) PayloadKind() PayloadKind        { return KindQuery }
func (QueryReply) PayloadKind() PayloadKind   { return KindQueryReply }
func (TreeProposal) PayloadKind() PayloadKind { return KindTreeProposal }
func (Probe) PayloadKind() PayloadKind        { return KindProbe }
func (PeerHello) PayloadKind() PayloadKind    { return KindPeerHello }
func (PeerList) PayloadKind() PayloadKind     { return KindPeerList }

func (TokenMsg) sealed()     {}
func (MemberChange) sealed() {}
func (*Notify) sealed()      {}
func (*NotifyAck) sealed()   {}
func (*PassAck) sealed()     {}
func (*HolderAck) sealed()   {}
func (JoinRequest) sealed()  {}
func (Snapshot) sealed()     {}
func (MergeRequest) sealed() {}
func (Query) sealed()        {}
func (QueryReply) sealed()   {}
func (TreeProposal) sealed() {}
func (Probe) sealed()        {}
func (PeerHello) sealed()    {}
func (PeerList) sealed()     {}

// itoa is a tiny strconv.FormatUint to keep the package dependency-free
// beyond the protocol vocabulary.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
