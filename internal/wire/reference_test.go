package wire

import (
	"encoding/binary"
	"math"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// The per-field codec this package used before a list section was read
// and written as fixed-size records, kept as the reference model of
// FuzzDecodeAgainstReference and TestBulkEncodersMatchPerField. It is
// the old code verbatim but for the names and three bounds: the section
// count and the body length are compared in 64 bits, where the old
// code's int arithmetic wrapped on a 32-bit platform, and a token's hop
// count past 65 535 is malformed, since Token.Hops is 16 bits.

// --- Per-field encoders -------------------------------------------------

func refAppendMemberInfo(b []byte, m ids.MemberInfo) []byte {
	b = appendU32(b, uint32(m.GID))
	b = appendU64(b, uint64(m.GUID))
	b = appendU32(b, m.LUID.Local)
	b = appendU64(b, uint64(m.AP))
	b = append(b, byte(m.Status))
	return appendU16(b, m.Ver)
}

func refAppendChange(b []byte, c mq.Change) []byte {
	b = append(b, byte(c.Op))
	b = refAppendMemberInfo(b, c.Member)
	b = appendU64(b, uint64(c.NE))
	b = appendU64(b, uint64(c.Origin))
	b = appendU64(b, c.Seq)
	return appendU64(b, uint64(c.ReplyTo))
}

func refAppendNodeIDs(b []byte, s []ids.NodeID) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, id := range s {
		b = appendU64(b, uint64(id))
	}
	return b
}

func refAppendMembers(b []byte, s []ids.MemberInfo) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, m := range s {
		b = refAppendMemberInfo(b, m)
	}
	return b
}

func refAppendBatch(b []byte, batch mq.Batch) []byte {
	b = appendU32(b, uint32(len(batch)))
	for _, c := range batch {
		b = refAppendChange(b, c)
	}
	return b
}

func refAppendTombstones(b []byte, s []Tombstone) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, t := range s {
		b = appendU64(b, uint64(t.GUID))
		b = appendU16(b, t.Ver)
	}
	return b
}

// refAppendRoundBody is the per-field encoding of the five bodies a ring
// round sends, written from the value payloads' AppendTo methods.
func refAppendRoundBody(b []byte, p Payload) []byte {
	switch m := p.(type) {
	case TokenMsg:
		t := m.Tok
		b = appendU32(b, uint32(t.GID))
		b = appendRingID(b, t.Ring)
		b = appendU64(b, uint64(t.Holder))
		b = appendU64(b, t.Round)
		b = append(b, byte(t.Dir))
		b = appendRingID(b, t.Source)
		b = appendU32(b, uint32(t.Hops))
		b = appendBool(b, t.Repaired)
		b = refAppendBatch(b, t.Ops)
		b = refAppendNodeIDs(b, t.Route)
		return refAppendNodeIDs(b, t.Contributors)
	case *Notify:
		b = refAppendBatch(b, m.Batch)
		b = appendRingID(b, m.From)
		b = appendBool(b, m.Up)
		b = appendBool(b, m.LeaderUpdate)
		b = appendU64(b, uint64(m.NewLeader))
		return appendU64(b, m.Seq)
	case *NotifyAck:
		return appendU64(b, m.Seq)
	case *PassAck:
		b = appendU64(b, uint64(m.Holder))
		return appendU64(b, m.Round)
	case *HolderAck:
		b = appendRingID(b, m.Ring)
		b = appendU64(b, m.Round)
		return appendU32(b, uint32(m.Count))
	}
	panic("not a round body")
}

// --- Per-field decoder --------------------------------------------------

// refDecodeFrame is DecodeFrame over the per-field reader.
func refDecodeFrame(b []byte) (Frame, error) {
	if len(b) < envelopeSize {
		return Frame{}, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return Frame{}, ErrBadMagic
	}
	if b[2] != Version {
		return Frame{}, ErrUnknownVersion
	}
	f := Frame{
		Class: b[3],
		TTL:   b[4],
		From:  ids.NodeID(binary.LittleEndian.Uint64(b[5:])),
		To:    ids.NodeID(binary.LittleEndian.Uint64(b[13:])),
		Group: ids.GroupID(binary.LittleEndian.Uint32(b[21:])),
	}
	p, n, err := refDecodePayload(b[envelopeSize:])
	if err != nil {
		return Frame{}, err
	}
	if envelopeSize+n != len(b) {
		return Frame{}, ErrMalformed
	}
	f.Payload = p
	return f, nil
}

func refDecodePayload(b []byte) (Payload, int, error) {
	if len(b) < payloadHeaderSize {
		return nil, 0, ErrTruncated
	}
	kind := PayloadKind(b[0])
	n := int64(binary.LittleEndian.Uint32(b[1:]))
	if n > int64(len(b)-payloadHeaderSize) {
		return nil, 0, ErrTruncated
	}
	consumed := payloadHeaderSize + int(n)
	if kind == KindNone {
		if n != 0 {
			return nil, 0, ErrMalformed
		}
		return nil, consumed, nil
	}
	if kind >= numPayloadKinds {
		return nil, 0, ErrUnknownPayload
	}
	r := refReader{b: b[payloadHeaderSize:consumed]}
	p := refDecodeBody(kind, &r)
	if r.bad || int64(r.off) != n {
		return nil, 0, ErrMalformed
	}
	return p, consumed, nil
}

type refReader struct {
	b   []byte
	off int
	bad bool
}

func (r *refReader) u8() uint8 {
	if r.bad || r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *refReader) u16() uint16 {
	if r.bad || r.off+2 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *refReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *refReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *refReader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.bad = true
		return false
	}
}

func (r *refReader) str() string {
	n := int(r.u16())
	if r.bad || n > len(r.b)-r.off {
		r.bad = true
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

func (r *refReader) count(elemSize int) int {
	n := int(r.u32())
	if r.bad || n < 0 || int64(n)*int64(elemSize) > int64(len(r.b)-r.off) {
		r.bad = true
		return 0
	}
	return n
}

func (r *refReader) nodeID() ids.NodeID { return ids.NodeID(r.u64()) }

func (r *refReader) ringID() ring.ID {
	t := ids.Tier(r.u8())
	return ring.ID{Tier: t, Index: int32(r.u32())}
}

func (r *refReader) memberInfo() ids.MemberInfo {
	m := ids.MemberInfo{
		GID:    ids.GroupID(r.u32()),
		GUID:   ids.GUID(r.u64()),
		LUID:   ids.LUID{Local: r.u32()},
		AP:     ids.NodeID(r.u64()),
		Status: ids.Status(r.u8()),
		Ver:    r.u16(),
	}
	m.LUID.AP = m.AP
	return m
}

func (r *refReader) change() mq.Change {
	return mq.Change{
		Op:      mq.Op(r.u8()),
		Member:  r.memberInfo(),
		NE:      r.nodeID(),
		Origin:  r.nodeID(),
		Seq:     r.u64(),
		ReplyTo: r.nodeID(),
	}
}

func (r *refReader) nodeIDs() []ids.NodeID {
	n := r.count(8)
	if r.bad || n == 0 {
		return nil
	}
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = r.nodeID()
	}
	return out
}

func (r *refReader) members(buf *[]ids.MemberInfo) []ids.MemberInfo {
	n := r.count(memberInfoSize)
	if r.bad || n == 0 {
		return nil
	}
	var out []ids.MemberInfo
	switch {
	case buf == nil:
		out = make([]ids.MemberInfo, n)
	case cap(*buf) >= n:
		out = (*buf)[:n]
	default:
		out = make([]ids.MemberInfo, n)
		*buf = out
	}
	for i := range out {
		out[i] = r.memberInfo()
	}
	return out
}

func (r *refReader) batch() mq.Batch {
	n := r.count(changeSize)
	if r.bad || n == 0 {
		return nil
	}
	out := make(mq.Batch, n)
	for i := range out {
		out[i] = r.change()
	}
	return out
}

func (r *refReader) tombstones() []Tombstone {
	n := r.count(tombstoneSize)
	if r.bad || n == 0 {
		return nil
	}
	out := make([]Tombstone, n)
	for i := range out {
		out[i] = Tombstone{GUID: ids.GUID(r.u64()), Ver: r.u16()}
	}
	return out
}

func (r *refReader) peerEntry() PeerEntry {
	return PeerEntry{
		Slot:      int32(r.u32()),
		State:     r.u8(),
		AgeMillis: r.u32(),
		Addr:      r.str(),
	}
}

func refDecodeTokenMsg(r *refReader) Payload {
	t := &token.Token{
		GID:    ids.GroupID(r.u32()),
		Ring:   r.ringID(),
		Holder: r.nodeID(),
		Round:  r.u64(),
		Dir:    token.Direction(r.u8()),
	}
	t.Source = r.ringID()
	if h := r.u32(); h <= math.MaxUint16 {
		t.Hops = uint16(h)
	} else {
		r.bad = true
	}
	t.Repaired = r.boolean()
	t.Ops = r.batch()
	t.Route = r.nodeIDs()
	t.Contributors = r.nodeIDs()
	return TokenMsg{Tok: t}
}

func refDecodeMemberChange(r *refReader) Payload {
	return MemberChange{Op: mq.Op(r.u8()), Member: r.memberInfo()}
}

func refDecodeNotify(r *refReader) Payload {
	return &Notify{
		Batch:        r.batch(),
		From:         r.ringID(),
		Up:           r.boolean(),
		LeaderUpdate: r.boolean(),
		NewLeader:    r.nodeID(),
		Seq:          r.u64(),
	}
}

func refDecodeNotifyAck(r *refReader) Payload { return &NotifyAck{Seq: r.u64()} }

func refDecodePassAck(r *refReader) Payload {
	return &PassAck{Holder: r.nodeID(), Round: r.u64()}
}

func refDecodeHolderAck(r *refReader) Payload {
	return &HolderAck{Ring: r.ringID(), Round: r.u64(), Count: int(r.u32())}
}

func refDecodeJoinRequest(r *refReader) Payload { return JoinRequest{Node: r.nodeID()} }

func refDecodeSnapshot(r *refReader) Payload {
	return Snapshot{
		Roster:     r.nodeIDs(),
		Leader:     r.nodeID(),
		Members:    r.members(nil),
		Tombstones: r.tombstones(),
	}
}

func refDecodeMergeRequest(r *refReader) Payload {
	return MergeRequest{
		Roster:     r.nodeIDs(),
		Members:    r.members(nil),
		Tombstones: r.tombstones(),
	}
}

func refDecodeQuery(r *refReader) Payload {
	return Query{
		ID:        r.u64(),
		Level:     int(r.u32()),
		ReplyTo:   r.nodeID(),
		Down:      r.boolean(),
		Entry:     r.nodeID(),
		EntryRing: r.ringID(),
	}
}

func refDecodeQueryReply(r *refReader) Payload {
	return QueryReply{ID: r.u64(), From: r.ringID(), Members: r.members(nil)}
}

func refDecodeTreeProposal(r *refReader) Payload {
	return TreeProposal{Change: r.change(), Up: r.boolean()}
}

func refDecodeProbe(r *refReader) Payload { return Probe{Seq: r.u64()} }

func refDecodePeerHello(r *refReader) Payload {
	return PeerHello{Seq: r.u64(), Slot: int32(r.u32()), Addr: r.str()}
}

func refDecodePeerList(r *refReader) Payload {
	m := PeerList{Seq: r.u64(), H: r.u16(), R: r.u16(), Slots: r.u32()}
	n := r.count(peerEntrySize)
	if r.bad || n == 0 {
		return m
	}
	m.Peers = make([]PeerEntry, n)
	for i := range m.Peers {
		m.Peers[i] = r.peerEntry()
	}
	return m
}

func refDecodeBody(k PayloadKind, r *refReader) Payload {
	switch k {
	case KindTokenMsg:
		return refDecodeTokenMsg(r)
	case KindMemberChange:
		return refDecodeMemberChange(r)
	case KindNotify:
		return refDecodeNotify(r)
	case KindNotifyAck:
		return refDecodeNotifyAck(r)
	case KindPassAck:
		return refDecodePassAck(r)
	case KindHolderAck:
		return refDecodeHolderAck(r)
	case KindJoinRequest:
		return refDecodeJoinRequest(r)
	case KindSnapshot:
		return refDecodeSnapshot(r)
	case KindMergeRequest:
		return refDecodeMergeRequest(r)
	case KindQuery:
		return refDecodeQuery(r)
	case KindQueryReply:
		return refDecodeQueryReply(r)
	case KindTreeProposal:
		return refDecodeTreeProposal(r)
	case KindProbe:
		return refDecodeProbe(r)
	case KindPeerHello:
		return refDecodePeerHello(r)
	case KindPeerList:
		return refDecodePeerList(r)
	default:
		r.bad = true
		return nil
	}
}
