package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// Wire format. All integers are little-endian, all lengths explicit;
// decoding never panics on arbitrary input and never allocates more
// than the input could actually hold.
//
// Payload frame (the unit AppendPayload writes):
//
//	[kind u8][bodyLen u32][body bodyLen bytes]
//
// Frame envelope (the unit AppendFrame/DecodeFrame handle):
//
//	['R']['G'][version u8][class u8][ttl u8][from u64][to u64][group u32][payload frame]
//
// Datagram (the unit the UDP transport exchanges): one or more frames
// back to back. A frame is self-delimiting, its fixed envelope followed
// by a payload frame that states its own length, so FrameLen splits a
// datagram without decoding it; a one-frame datagram is just the frame.
//
// Version rules: the version byte covers the whole envelope including
// every payload body layout. Any layout change bumps Version; a
// receiver drops (and counts) frames with any other version, so all
// processes of a deployment upgrade together. Version 4 is version 3's
// layout with datagrams that may carry several frames: a version-3
// receiver would take a coalesced datagram for one malformed frame.
// Version 5 gives each member record and tombstone a u16 version and
// drops the record's copy of its AP from the care-of identity: a record
// is 27 bytes, not 33, and a tombstone 10, not 16. Payload kinds are
// append-only — never renumbered.
const (
	// Version is the wire-format version emitted by this build.
	Version = 5

	magic0 = 'R'
	magic1 = 'G'

	payloadHeaderSize = 1 + 4
	envelopeSize      = 2 + 1 + 1 + 1 + 8 + 8 + 4

	// MaxDatagram bounds one datagram, and so every frame in it: the
	// largest UDP payload IPv4 carries (65 535 less the 20-byte IP and
	// 8-byte UDP headers). The UDP transport sizes its receive buffers
	// with it.
	MaxDatagram = 65507

	// MaxDatagramMembers bounds the member records one datagram can
	// carry: each is memberInfoSize bytes, and a frame has headers too.
	MaxDatagramMembers = MaxDatagram / memberInfoSize
)

// Codec errors. Match with errors.Is.
var (
	// ErrTruncated reports input shorter than its own layout claims.
	ErrTruncated = errors.New("wire: truncated")

	// ErrBadMagic reports an envelope that does not start with the
	// protocol magic.
	ErrBadMagic = errors.New("wire: bad magic")

	// ErrUnknownVersion reports an envelope from a different
	// wire-format version. The transport accounts these separately
	// from plain decode errors.
	ErrUnknownVersion = errors.New("wire: unknown version")

	// ErrUnknownPayload reports a payload kind this build does not
	// know.
	ErrUnknownPayload = errors.New("wire: unknown payload kind")

	// ErrMalformed reports a structurally invalid payload body.
	ErrMalformed = errors.New("wire: malformed payload")
)

// Frame is one decoded datagram envelope.
type Frame struct {
	From    ids.NodeID
	To      ids.NodeID
	Group   ids.GroupID // owning group
	Class   uint8       // accounting class (runtime.Kind), carried opaquely
	TTL     uint8       // hop budget byte; stamped, read by nothing
	Payload Payload
}

// AppendFrame appends the encoding of f to b, a datagram's worth of
// frames or an empty buffer. With a reused buffer the encode path
// performs no allocation.
func AppendFrame(b []byte, f Frame) []byte {
	b = append(b, magic0, magic1, Version, f.Class, f.TTL)
	b = appendU64(b, uint64(f.From))
	b = appendU64(b, uint64(f.To))
	b = appendU32(b, uint32(f.Group))
	return AppendPayload(b, f.Payload)
}

// DecodeFrame decodes one frame. It is strict: trailing bytes,
// truncated layouts, unknown kinds and out-of-range lengths all error,
// so a datagram of several frames is split with FrameLen first.
func DecodeFrame(b []byte) (Frame, error) { return DecodeFrameInto(b, nil) }

// DecodeTarget is what DecodeFrameInto decodes into, kept by its caller
// from one frame to the next: a buffer for a QueryReply's members and
// one value of each round body.
type DecodeTarget struct {
	Members   []ids.MemberInfo
	Token     token.Token
	Notify    Notify
	PassAck   PassAck
	HolderAck HolderAck
	NotifyAck NotifyAck
}

// DecodeFrameInto is DecodeFrame into a target the caller keeps. When
// into.Members has room for a QueryReply's members they are decoded into
// its array; otherwise into a fresh one, which is left in into.Members.
// A round body is decoded into its value in into, every field written;
// its token's Ops, Route and Contributors are fresh arrays all the same.
// The reply or round body then aliases into and is valid only until the
// caller reuses it: a receiver that keeps a round body keeps a copy
// (Bodies.Adopt). Every other payload is decoded as DecodeFrame decodes
// it, into memory its receiver may keep. A nil into is DecodeFrame.
func DecodeFrameInto(b []byte, into *DecodeTarget) (Frame, error) {
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
	p, n, err := decodePayload(b[envelopeSize:], into)
	if err != nil {
		return Frame{}, err
	}
	if envelopeSize+n != len(b) {
		return Frame{}, ErrMalformed
	}
	f.Payload = p
	return f, nil
}

// FrameLen returns the length of the encoded frame at the front of b, a
// datagram or what is left of one, read from its payload header alone:
// it does not check the magic, the version or the body, which decoding
// the frame does. It fails with ErrTruncated when b is too short to hold
// a frame header or the body length points past the end of b, so a
// successful length is always at least one header and never past len(b).
func FrameLen(b []byte) (int, error) {
	if len(b) < envelopeSize+payloadHeaderSize {
		return 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(b[envelopeSize+1:]) // unsigned, as in decodePayload
	if uint64(n) > uint64(len(b)-envelopeSize-payloadHeaderSize) {
		return 0, ErrTruncated
	}
	return envelopeSize + payloadHeaderSize + int(n), nil
}

// FramePayloadKind reads the payload kind of an encoded frame without
// decoding it, so a receiver can choose a buffer before DecodeFrameInto.
// It validates nothing: a frame too short to hold a kind reads KindNone.
func FramePayloadKind(b []byte) PayloadKind {
	if len(b) <= envelopeSize {
		return KindNone
	}
	return PayloadKind(b[envelopeSize])
}

// AppendPayload appends the framed encoding of p (nil encodes as
// KindNone with an empty body).
func AppendPayload(b []byte, p Payload) []byte {
	if p == nil {
		return append(b, byte(KindNone), 0, 0, 0, 0)
	}
	b = append(b, byte(p.PayloadKind()), 0, 0, 0, 0)
	start := len(b)
	b = p.AppendTo(b)
	binary.LittleEndian.PutUint32(b[start-4:start], uint32(len(b)-start))
	return b
}

// decodePayload decodes one framed payload from the front of b into
// DecodeFrameInto's target, returning the payload, the number of
// bytes consumed, and any error. A KindNone frame yields a nil Payload.
func decodePayload(b []byte, into *DecodeTarget) (Payload, int, error) {
	if len(b) < payloadHeaderSize {
		return nil, 0, ErrTruncated
	}
	kind := PayloadKind(b[0])
	// Compared as unsigned: on a 32-bit platform a length past 2³¹
	// converts to a negative int, which would pass.
	n32 := binary.LittleEndian.Uint32(b[1:])
	if uint64(n32) > uint64(len(b)-payloadHeaderSize) {
		return nil, 0, ErrTruncated
	}
	n := int(n32)
	consumed := payloadHeaderSize + n
	if kind == KindNone {
		if n != 0 {
			return nil, 0, ErrMalformed
		}
		return nil, consumed, nil
	}
	if kind >= numPayloadKinds || kind == kindRetired {
		return nil, 0, ErrUnknownPayload
	}
	r := reader{b: b[payloadHeaderSize:consumed]}
	p := decodeBody(kind, &r, into)
	if r.bad || r.off != n {
		return nil, 0, ErrMalformed
	}
	return p, consumed, nil
}

// --- Append helpers ---------------------------------------------------

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendString encodes a u16-length-prefixed string (an address, never
// longer than a hostname:port; anything past 64 KiB is truncated rather
// than corrupting the length field).
func appendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendRingID(b []byte, id ring.ID) []byte {
	b = append(b, byte(id.Tier))
	return appendU32(b, uint32(id.Index))
}

// appendRecords extends b by n records of size bytes, growing it at
// most once, and returns the extended buffer and the new records' bytes
// for the caller to write in place.
func appendRecords(b []byte, n, size int) (out, recs []byte) {
	start := len(b)
	b = slices.Grow(b, n*size)[:start+n*size]
	return b, b[start:]
}

// appendSection writes a list section's u32 count and makes room for
// its n records of size bytes.
func appendSection(b []byte, n, size int) (out, recs []byte) {
	return appendRecords(appendU32(b, uint32(n)), n, size)
}

// putMember writes a member record into p. The care-of identity's AP is
// the record's AP, so only its local index goes on the wire. It takes
// the record by pointer, as readMember does, so none is copied.
func putMember(p []byte, m *ids.MemberInfo) {
	_ = p[memberInfoSize-1]
	binary.LittleEndian.PutUint32(p[0:], uint32(m.GID))
	binary.LittleEndian.PutUint64(p[4:], uint64(m.GUID))
	binary.LittleEndian.PutUint32(p[12:], m.LUID.Local)
	binary.LittleEndian.PutUint64(p[16:], uint64(m.AP))
	p[24] = byte(m.Status)
	binary.LittleEndian.PutUint16(p[25:], m.Ver)
}

func putChange(p []byte, c *mq.Change) {
	_ = p[changeSize-1]
	p[0] = byte(c.Op)
	putMember(p[1:], &c.Member)
	q := p[1+memberInfoSize:]
	binary.LittleEndian.PutUint64(q[0:], uint64(c.NE))
	binary.LittleEndian.PutUint64(q[8:], uint64(c.Origin))
	binary.LittleEndian.PutUint64(q[16:], c.Seq)
	binary.LittleEndian.PutUint64(q[24:], uint64(c.ReplyTo))
}

func appendMemberInfo(b []byte, m ids.MemberInfo) []byte {
	b, rec := appendRecords(b, 1, memberInfoSize)
	putMember(rec, &m)
	return b
}

func appendNodeIDs(b []byte, s []ids.NodeID) []byte {
	b, p := appendSection(b, len(s), nodeIDSize)
	for i, id := range s {
		binary.LittleEndian.PutUint64(p[i*nodeIDSize:], uint64(id))
	}
	return b
}

func appendMembers(b []byte, s []ids.MemberInfo) []byte {
	b, p := appendSection(b, len(s), memberInfoSize)
	for i := range s {
		putMember(p[i*memberInfoSize:], &s[i])
	}
	return b
}

func appendBatch(b []byte, batch mq.Batch) []byte {
	b, p := appendSection(b, len(batch), changeSize)
	for i := range batch {
		putChange(p[i*changeSize:], &batch[i])
	}
	return b
}

func appendTombstones(b []byte, s []Tombstone) []byte {
	b, p := appendSection(b, len(s), tombstoneSize)
	for i, t := range s {
		binary.LittleEndian.PutUint64(p[i*tombstoneSize:], uint64(t.GUID))
		binary.LittleEndian.PutUint16(p[i*tombstoneSize+8:], t.Ver)
	}
	return b
}

// Fixed record sizes. A list section is a u32 count and that many
// records of one of these sizes: the reader checks the count against
// the bytes present once (a hostile count must not drive a huge
// allocation) and then decodes the records without further checks.
// A new record type states its size here.
const (
	memberInfoSize = 4 + 8 + 4 + 8 + 1 + 2
	changeSize     = 1 + memberInfoSize + 8 + 8 + 8 + 8
	tombstoneSize  = 8 + 2
	nodeIDSize     = 8

	// peerEntrySize is the minimum encoding of one PeerEntry (its
	// variable-length address contributes only the u16 length here).
	peerEntrySize = 4 + 1 + 4 + 2
)

// --- Reader -----------------------------------------------------------

// reader is a bounds-checked cursor over one payload body. On any
// short read it latches bad and every further read yields zeros, so
// decode code stays straight-line. The per-field reads are for headers;
// a list section is checked once by count and read as fixed records.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) u8() uint8 {
	if r.bad || r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.bad || r.off+2 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) boolean() bool {
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

func (r *reader) str() string {
	n := int(r.u16())
	if r.bad || n > len(r.b)-r.off {
		r.bad = true
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// count reads a slice length and validates it against the bytes left
// for elements of elemSize. The bound divides rather than multiplies,
// so a count near 2³² cannot wrap a 32-bit int past the check.
func (r *reader) count(elemSize int) int {
	n := r.u32()
	if r.bad || uint64(n) > uint64((len(r.b)-r.off)/elemSize) {
		r.bad = true
		return 0
	}
	return int(n)
}

// records returns the next n records of size bytes, which count has
// checked are present, and moves past them.
func (r *reader) records(n, size int) []byte {
	p := r.b[r.off : r.off+n*size]
	r.off += n * size
	return p
}

// record returns the next size bytes, or nil and latches bad when
// fewer are left.
func (r *reader) record(size int) []byte {
	if r.bad || size > len(r.b)-r.off {
		r.bad = true
		return nil
	}
	return r.records(1, size)
}

func (r *reader) nodeID() ids.NodeID { return ids.NodeID(r.u64()) }

func (r *reader) ringID() ring.ID {
	t := ids.Tier(r.u8())
	return ring.ID{Tier: t, Index: int32(r.u32())}
}

// readMember decodes the member record at the front of p into m. The
// care-of identity's AP is the record's AP. It writes through m rather
// than returning a MemberInfo, which the compiler would build on the
// stack and copy: that copy tripled the cost of a member list.
func readMember(m *ids.MemberInfo, p []byte) {
	_ = p[memberInfoSize-1]
	ap := ids.NodeID(binary.LittleEndian.Uint64(p[16:]))
	m.GUID = ids.GUID(binary.LittleEndian.Uint64(p[4:]))
	m.LUID = ids.LUID{AP: ap, Local: binary.LittleEndian.Uint32(p[12:])}
	m.AP = ap
	m.GID = ids.GroupID(binary.LittleEndian.Uint32(p[0:]))
	m.Status = ids.Status(p[24])
	m.Ver = binary.LittleEndian.Uint16(p[25:])
}

// readChange decodes the change record at the front of p into c.
func readChange(c *mq.Change, p []byte) {
	_ = p[changeSize-1]
	c.Op = mq.Op(p[0])
	readMember(&c.Member, p[1:])
	q := p[1+memberInfoSize:]
	c.NE = ids.NodeID(binary.LittleEndian.Uint64(q[0:]))
	c.Origin = ids.NodeID(binary.LittleEndian.Uint64(q[8:]))
	c.Seq = binary.LittleEndian.Uint64(q[16:])
	c.ReplyTo = ids.NodeID(binary.LittleEndian.Uint64(q[24:]))
}

func (r *reader) memberInfo() (m ids.MemberInfo) {
	if p := r.record(memberInfoSize); p != nil {
		readMember(&m, p)
	}
	return m
}

func (r *reader) nodeIDs() []ids.NodeID {
	n := r.count(nodeIDSize)
	if r.bad || n == 0 {
		return nil
	}
	out := make([]ids.NodeID, n)
	p := r.records(n, nodeIDSize)
	for i := range out {
		out[i] = ids.NodeID(binary.LittleEndian.Uint64(p[i*nodeIDSize:]))
	}
	return out
}

// members reads a member list into buf's array when it has room, or
// else into a fresh one, which it leaves in buf; a nil buf allocates.
func (r *reader) members(buf *[]ids.MemberInfo) []ids.MemberInfo {
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
	p := r.records(n, memberInfoSize)
	for i := range out {
		readMember(&out[i], p[i*memberInfoSize:])
	}
	return out
}

func (r *reader) batch() mq.Batch {
	n := r.count(changeSize)
	if r.bad || n == 0 {
		return nil
	}
	out := make(mq.Batch, n)
	p := r.records(n, changeSize)
	for i := range out {
		readChange(&out[i], p[i*changeSize:])
	}
	return out
}

// tombstones reads the tombstone section that ends a Snapshot or
// MergeRequest body.
func (r *reader) tombstones() []Tombstone {
	n := r.count(tombstoneSize)
	if r.bad || n == 0 {
		return nil
	}
	out := make([]Tombstone, n)
	p := r.records(n, tombstoneSize)
	for i := range out {
		q := p[i*tombstoneSize:]
		out[i] = Tombstone{GUID: ids.GUID(binary.LittleEndian.Uint64(q)), Ver: binary.LittleEndian.Uint16(q[8:])}
	}
	return out
}

// --- Per-payload bodies -----------------------------------------------

// AppendTo implements Payload.
func (m TokenMsg) AppendTo(b []byte) []byte {
	t := m.Tok
	b = appendU32(b, uint32(t.GID))
	b = appendRingID(b, t.Ring)
	b = appendU64(b, uint64(t.Holder))
	b = appendU64(b, t.Round)
	b = append(b, byte(t.Dir))
	b = appendRingID(b, t.Source)
	b = appendU32(b, uint32(t.Hops))
	b = appendBool(b, t.Repaired)
	b = appendBatch(b, t.Ops)
	b = appendNodeIDs(b, t.Route)
	return appendNodeIDs(b, t.Contributors)
}

func decodeTokenMsg(r *reader, into *DecodeTarget) Payload {
	var t *token.Token
	if into != nil {
		t = &into.Token
	} else {
		t = new(token.Token)
	}
	*t = token.Token{
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
		r.bad = true // more hops than a Token counts
	}
	t.Repaired = r.boolean()
	t.Ops = r.batch()
	t.Route = r.nodeIDs()
	t.Contributors = r.nodeIDs()
	return TokenMsg{Tok: t}
}

// AppendTo implements Payload.
func (m MemberChange) AppendTo(b []byte) []byte {
	b = append(b, byte(m.Op))
	return appendMemberInfo(b, m.Member)
}

func decodeMemberChange(r *reader) Payload {
	return MemberChange{Op: mq.Op(r.u8()), Member: r.memberInfo()}
}

// AppendTo implements Payload.
func (m *Notify) AppendTo(b []byte) []byte {
	b = appendBatch(b, m.Batch)
	b = appendRingID(b, m.From)
	b = appendBool(b, m.Up)
	b = appendBool(b, m.LeaderUpdate)
	b = appendU64(b, uint64(m.NewLeader))
	return appendU64(b, m.Seq)
}

func decodeNotify(r *reader, into *DecodeTarget) Payload {
	var n *Notify
	if into != nil {
		n = &into.Notify
	} else {
		n = new(Notify)
	}
	*n = Notify{
		Batch:        r.batch(),
		From:         r.ringID(),
		Up:           r.boolean(),
		LeaderUpdate: r.boolean(),
		NewLeader:    r.nodeID(),
		Seq:          r.u64(),
	}
	return n
}

// AppendTo implements Payload.
func (m *NotifyAck) AppendTo(b []byte) []byte { return appendU64(b, m.Seq) }

func decodeNotifyAck(r *reader, into *DecodeTarget) Payload {
	var a *NotifyAck
	if into != nil {
		a = &into.NotifyAck
	} else {
		a = new(NotifyAck)
	}
	*a = NotifyAck{Seq: r.u64()}
	return a
}

// AppendTo implements Payload.
func (m *PassAck) AppendTo(b []byte) []byte {
	b = appendU64(b, uint64(m.Holder))
	return appendU64(b, m.Round)
}

func decodePassAck(r *reader, into *DecodeTarget) Payload {
	var a *PassAck
	if into != nil {
		a = &into.PassAck
	} else {
		a = new(PassAck)
	}
	*a = PassAck{Holder: r.nodeID(), Round: r.u64()}
	return a
}

// AppendTo implements Payload.
func (m *HolderAck) AppendTo(b []byte) []byte {
	b = appendRingID(b, m.Ring)
	b = appendU64(b, m.Round)
	return appendU32(b, uint32(m.Count))
}

func decodeHolderAck(r *reader, into *DecodeTarget) Payload {
	var a *HolderAck
	if into != nil {
		a = &into.HolderAck
	} else {
		a = new(HolderAck)
	}
	*a = HolderAck{Ring: r.ringID(), Round: r.u64(), Count: int(r.u32())}
	return a
}

// AppendTo implements Payload.
func (m JoinRequest) AppendTo(b []byte) []byte { return appendU64(b, uint64(m.Node)) }

func decodeJoinRequest(r *reader) Payload { return JoinRequest{Node: r.nodeID()} }

// AppendTo implements Payload.
func (m Snapshot) AppendTo(b []byte) []byte {
	b = appendNodeIDs(b, m.Roster)
	b = appendU64(b, uint64(m.Leader))
	b = appendMembers(b, m.Members)
	return appendTombstones(b, m.Tombstones)
}

func decodeSnapshot(r *reader) Payload {
	return Snapshot{
		Roster:     r.nodeIDs(),
		Leader:     r.nodeID(),
		Members:    r.members(nil),
		Tombstones: r.tombstones(),
	}
}

// AppendTo implements Payload.
func (m MergeRequest) AppendTo(b []byte) []byte {
	b = appendNodeIDs(b, m.Roster)
	b = appendMembers(b, m.Members)
	return appendTombstones(b, m.Tombstones)
}

func decodeMergeRequest(r *reader) Payload {
	return MergeRequest{
		Roster:     r.nodeIDs(),
		Members:    r.members(nil),
		Tombstones: r.tombstones(),
	}
}

// AppendTo implements Payload.
func (m Query) AppendTo(b []byte) []byte {
	b = appendU64(b, m.ID)
	b = appendU32(b, uint32(m.Level))
	b = appendU64(b, uint64(m.ReplyTo))
	b = appendBool(b, m.Down)
	b = appendU64(b, uint64(m.Entry))
	return appendRingID(b, m.EntryRing)
}

func decodeQuery(r *reader) Payload {
	return Query{
		ID:        r.u64(),
		Level:     int(r.u32()),
		ReplyTo:   r.nodeID(),
		Down:      r.boolean(),
		Entry:     r.nodeID(),
		EntryRing: r.ringID(),
	}
}

// AppendTo implements Payload.
func (m QueryReply) AppendTo(b []byte) []byte {
	b = appendU64(b, m.ID)
	b = appendRingID(b, m.From)
	return appendMembers(b, m.Members)
}

// decodeQueryReply is the one decode that reuses a caller's buffer: a
// reply's members are the largest payload on the wire, and only the
// requester's handler reads them, once.
func decodeQueryReply(r *reader, into *DecodeTarget) Payload {
	var buf *[]ids.MemberInfo
	if into != nil {
		buf = &into.Members
	}
	return QueryReply{ID: r.u64(), From: r.ringID(), Members: r.members(buf)}
}

// AppendTo implements Payload.
func (m Probe) AppendTo(b []byte) []byte { return appendU64(b, m.Seq) }

func decodeProbe(r *reader) Payload { return Probe{Seq: r.u64()} }

// AppendTo implements Payload.
func (m PeerHello) AppendTo(b []byte) []byte {
	b = appendU64(b, m.Seq)
	b = appendU32(b, uint32(m.Slot))
	return appendString(b, m.Addr)
}

func decodePeerHello(r *reader) Payload {
	return PeerHello{Seq: r.u64(), Slot: int32(r.u32()), Addr: r.str()}
}

func appendPeerEntry(b []byte, e PeerEntry) []byte {
	b = appendU32(b, uint32(e.Slot))
	b = append(b, e.State)
	b = appendU32(b, e.AgeMillis)
	return appendString(b, e.Addr)
}

func (r *reader) peerEntry() PeerEntry {
	return PeerEntry{
		Slot:      int32(r.u32()),
		State:     r.u8(),
		AgeMillis: r.u32(),
		Addr:      r.str(),
	}
}

// AppendTo implements Payload.
func (m PeerList) AppendTo(b []byte) []byte {
	b = appendU64(b, m.Seq)
	b = appendU16(b, m.H)
	b = appendU16(b, m.R)
	b = appendU32(b, m.Slots)
	b = appendU32(b, uint32(len(m.Peers)))
	for _, e := range m.Peers {
		b = appendPeerEntry(b, e)
	}
	return b
}

func decodePeerList(r *reader) Payload {
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

// decodeBody dispatches on the payload kind. A round body or a reply's
// members are decoded into into, unless it is nil. The target is passed
// apart from the reader: as one of its fields, escape analysis would
// see the reader's bytes flow into the payload and move the caller's
// datagram buffer to the heap.
func decodeBody(k PayloadKind, r *reader, into *DecodeTarget) Payload {
	switch k {
	case KindTokenMsg:
		return decodeTokenMsg(r, into)
	case KindMemberChange:
		return decodeMemberChange(r)
	case KindNotify:
		return decodeNotify(r, into)
	case KindNotifyAck:
		return decodeNotifyAck(r, into)
	case KindPassAck:
		return decodePassAck(r, into)
	case KindHolderAck:
		return decodeHolderAck(r, into)
	case KindJoinRequest:
		return decodeJoinRequest(r)
	case KindSnapshot:
		return decodeSnapshot(r)
	case KindMergeRequest:
		return decodeMergeRequest(r)
	case KindQuery:
		return decodeQuery(r)
	case KindQueryReply:
		return decodeQueryReply(r, into)
	case KindProbe:
		return decodeProbe(r)
	case KindPeerHello:
		return decodePeerHello(r)
	case KindPeerList:
		return decodePeerList(r)
	default:
		r.bad = true
		return nil
	}
}
