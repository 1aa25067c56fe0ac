package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

func ap(i int) ids.NodeID { return ids.MakeNodeID(ids.TierAP, i) }

func sampleMember(i int) ids.MemberInfo {
	return ids.MemberInfo{
		GID:    ids.NewGroupID(7),
		GUID:   ids.GUID(100 + i),
		LUID:   ids.LUID{AP: ap(i), Local: uint32(i + 1)},
		AP:     ap(i),
		Status: ids.StatusOperational,
		Ver:    uint16(65534 + i), // wraps to 0 at i = 2
	}
}

func sampleChange(i int) mq.Change {
	return mq.Change{
		Op:      mq.OpMemberJoin,
		Member:  sampleMember(i),
		NE:      ap(i + 3),
		Origin:  ap(0),
		Seq:     uint64(900 + i),
		ReplyTo: ids.MakeNodeID(ids.TierMH, i),
	}
}

func sampleToken() *token.Token {
	return &token.Token{
		GID:          ids.NewGroupID(7),
		Ring:         ring.ID{Tier: ids.TierAP, Index: 4},
		Holder:       ap(1),
		Round:        99,
		Ops:          mq.Batch{sampleChange(0), sampleChange(1)},
		Dir:          token.FromChild,
		Source:       ring.ID{Tier: ids.TierAG, Index: 2},
		Route:        []ids.NodeID{ap(1), ap(2), ap(3)},
		Hops:         5,
		Repaired:     true,
		Contributors: []ids.NodeID{ap(2)},
	}
}

// samplePayloads covers every kind of the closed union.
func samplePayloads() []Payload {
	return []Payload{
		TokenMsg{Tok: sampleToken()},
		MemberChange{Op: mq.OpMemberHandoff, Member: sampleMember(2)},
		&Notify{
			Batch:        mq.Batch{sampleChange(2)},
			From:         ring.ID{Tier: ids.TierAP, Index: 9},
			Up:           true,
			LeaderUpdate: true,
			NewLeader:    ap(4),
			Seq:          12,
		},
		&NotifyAck{Seq: 12},
		&PassAck{Holder: ap(3), Round: 3},
		&HolderAck{Ring: ring.ID{Tier: ids.TierAP, Index: 1}, Round: 8, Count: 2},
		JoinRequest{Node: ap(5)},
		Snapshot{
			Roster:     []ids.NodeID{ap(0), ap(1)},
			Leader:     ap(0),
			Members:    []ids.MemberInfo{sampleMember(0), sampleMember(1)},
			Tombstones: []Tombstone{{GUID: 100, Ver: 2}, {GUID: 555, Ver: 1}},
		},
		MergeRequest{
			Roster:     []ids.NodeID{ap(2)},
			Members:    []ids.MemberInfo{sampleMember(3)},
			Tombstones: []Tombstone{{GUID: 103, Ver: 1}},
		},
		Query{ID: 7, Level: 2, ReplyTo: ids.MakeNodeID(ids.TierMH, 1), Down: true, Entry: ap(1), EntryRing: ring.ID{Tier: ids.TierAP, Index: 3}},
		QueryReply{ID: 7, From: ring.ID{Tier: ids.TierAP, Index: 3}, Members: []ids.MemberInfo{sampleMember(4)}},
		Probe{Seq: 42},
		PeerHello{Seq: 9, Slot: 3, Addr: "127.0.0.1:7003"},
		PeerList{Seq: 9, H: 2, R: 3, Slots: 4, Peers: []PeerEntry{
			{Slot: 0, State: 0, AgeMillis: 120, Addr: "127.0.0.1:7000"},
			{Slot: -1, State: 1, AgeMillis: 9000, Addr: "127.0.0.1:9001"},
		}},
	}
}

// TestPayloadRoundTrip: encode -> decode reproduces every payload kind
// exactly (token payloads compare through the pointee).
func TestPayloadRoundTrip(t *testing.T) {
	for _, p := range samplePayloads() {
		b := AppendPayload(nil, p)
		got, n, err := decodePayload(b, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.PayloadKind(), err)
		}
		if n != len(b) {
			t.Fatalf("%s: consumed %d of %d bytes", p.PayloadKind(), n, len(b))
		}
		want := any(p)
		gotAny := any(got)
		if tm, ok := p.(TokenMsg); ok {
			want = *tm.Tok
			gotAny = *got.(TokenMsg).Tok
		}
		if !reflect.DeepEqual(gotAny, want) {
			t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", p.PayloadKind(), gotAny, want)
		}
	}
}

// TestMemberRecordBytes: a member record is 27 bytes and a tombstone
// 10. The record carries its care-of identity's local index only: the
// decoder takes the identity's AP from the record's AP.
func TestMemberRecordBytes(t *testing.T) {
	m := sampleMember(1)
	if n := len(appendMemberInfo(nil, m)); n != 27 {
		t.Fatalf("a member record is %d bytes, want 27", n)
	}
	if n := len(appendTombstones(nil, []Tombstone{{GUID: 1, Ver: 2}})) - 4; n != 10 {
		t.Fatalf("a tombstone is %d bytes, want 10", n)
	}
	m.LUID.AP = ap(9)
	r := reader{b: appendMemberInfo(nil, m)}
	got := r.memberInfo()
	m.LUID.AP = m.AP
	if r.bad || got != m {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
}

// TestNilPayloadRoundTrip: a nil payload travels as KindNone.
func TestNilPayloadRoundTrip(t *testing.T) {
	b := AppendPayload(nil, nil)
	p, n, err := decodePayload(b, nil)
	if err != nil || p != nil || n != len(b) {
		t.Fatalf("nil round trip: p=%v n=%d err=%v", p, n, err)
	}
}

// TestFrameRoundTrip: the datagram envelope preserves addressing,
// class, TTL and payload.
func TestFrameRoundTrip(t *testing.T) {
	for _, p := range samplePayloads() {
		f := Frame{From: ap(1), To: ap(2), Class: 3, TTL: 8, Payload: p}
		b := AppendFrame(nil, f)
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("%s: decode frame: %v", p.PayloadKind(), err)
		}
		if got.From != f.From || got.To != f.To || got.Class != f.Class || got.TTL != f.TTL {
			t.Fatalf("%s: envelope mismatch: %+v", p.PayloadKind(), got)
		}
		// Canonical re-encode must be byte-identical.
		if b2 := AppendFrame(nil, got); !bytes.Equal(b, b2) {
			t.Fatalf("%s: re-encode differs", p.PayloadKind())
		}
	}
}

// TestEncodeDoesNotAllocateWithReusedBuffer: the append-style encode
// path must be zero-allocation once the buffer has grown.
func TestEncodeDoesNotAllocateWithReusedBuffer(t *testing.T) {
	payloads := samplePayloads()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range payloads {
			buf = AppendFrame(buf[:0], Frame{From: ap(0), To: ap(1), Class: 1, TTL: 4, Payload: p})
		}
	})
	if allocs != 0 {
		t.Fatalf("encode path allocates: %.1f allocs/run", allocs)
	}
}

// TestDecodeFrameIntoBuffer: a QueryReply's members land in the
// caller's buffer when it has room and in a fresh one, handed back
// through the pointer, when it has not; any other payload leaves the
// buffer alone, so its receiver may keep what it decoded.
func TestDecodeFrameIntoBuffer(t *testing.T) {
	members := []ids.MemberInfo{sampleMember(1), sampleMember(2), sampleMember(3)}
	reply := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 2, TTL: 8, Payload: QueryReply{ID: 1, Members: members}})
	if k := FramePayloadKind(reply); k != KindQueryReply {
		t.Fatalf("FramePayloadKind = %s, want query-reply", k)
	}
	if k := FramePayloadKind(reply[:envelopeSize]); k != KindNone {
		t.Fatalf("FramePayloadKind of a bare envelope = %s, want none", k)
	}
	decode := func(b []byte, buf *[]ids.MemberInfo) Payload {
		t.Helper()
		into := DecodeTarget{Members: *buf}
		f, err := DecodeFrameInto(b, &into)
		if err != nil {
			t.Fatal(err)
		}
		*buf = into.Members
		return f.Payload
	}

	roomy := make([]ids.MemberInfo, 5)
	buf := roomy
	got := decode(reply, &buf).(QueryReply).Members
	if !reflect.DeepEqual(got, members) || &got[0] != &roomy[0] || cap(buf) != 5 {
		t.Fatalf("into a 5-slot buffer: %v, sharing its array %v, buffer cap %d", got, &got[0] == &roomy[0], cap(buf))
	}

	small := make([]ids.MemberInfo, 2)
	buf = small
	got = decode(reply, &buf).(QueryReply).Members
	if !reflect.DeepEqual(got, members) || &got[0] != &buf[0] || &buf[0] == &small[0] {
		t.Fatalf("into a 2-slot buffer: %v; the reply must be in a fresh array left in the buffer", got)
	}

	snap := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 1, TTL: 8, Payload: Snapshot{Leader: ap(0), Members: members}})
	buf = roomy
	got = decode(snap, &buf).(Snapshot).Members
	if !reflect.DeepEqual(got, members) || &got[0] == &roomy[0] || &buf[0] != &roomy[0] {
		t.Fatal("a Snapshot was decoded into the reply buffer")
	}
}

// TestDecodeErrors: the codec classifies bad input without panicking.
func TestDecodeErrors(t *testing.T) {
	good := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 1, TTL: 2, Payload: Probe{Seq: 1}})

	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		{"empty", nil, ErrTruncated},
		{"short envelope", good[:10], ErrTruncated},
		{"bad magic", append([]byte("XX"), good[2:]...), ErrBadMagic},
		{"unknown version", func() []byte { b := append([]byte(nil), good...); b[2] = 99; return b }(), ErrUnknownVersion},
		{"pre-group version 1", func() []byte {
			b := append([]byte(nil), good[:envelopeSize-4]...) // v1 had no group word
			b[2] = 1
			return append(b, good[envelopeSize:]...)
		}(), ErrUnknownVersion},
		{"unknown payload", func() []byte { b := append([]byte(nil), good...); b[envelopeSize] = byte(numPayloadKinds); return b }(), ErrUnknownPayload},
		{"retired payload kind", func() []byte { b := append([]byte(nil), good...); b[envelopeSize] = byte(kindRetired); return b }(), ErrUnknownPayload},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF), ErrMalformed},
		{"truncated body", good[:len(good)-2], ErrTruncated},
		{"snapshot without its tombstone section", withoutTombstoneSection(Snapshot{Roster: []ids.NodeID{ap(0)}, Leader: ap(0)}), ErrMalformed},
		{"merge request without its tombstone section", withoutTombstoneSection(MergeRequest{Roster: []ids.NodeID{ap(3)}, Members: []ids.MemberInfo{sampleMember(3)}}), ErrMalformed},
		{"length overrun", func() []byte {
			b := append([]byte(nil), good...)
			b[envelopeSize+1] = 0xFF // claim a body far larger than present
			return b
		}(), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeFrame(tc.b); !errors.Is(err, tc.err) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
		})
	}
}

// withoutTombstoneSection frames p, whose tombstone section must be
// empty, the way a pre-tombstone build did: the section's count word is
// cut and the body length header shortened to match.
func withoutTombstoneSection(p Payload) []byte {
	b := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Payload: p})
	b = b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[envelopeSize+1:], uint32(len(b)-envelopeSize-payloadHeaderSize))
	return b
}

// TestFrameLenSplitsADatagram: frames written back to back are split at
// their own boundaries, a frame still decodes on its own, and a
// datagram whose last frame is short or whose body length overruns is
// refused at that frame and no earlier.
func TestFrameLenSplitsADatagram(t *testing.T) {
	var frames [][]byte
	for i, p := range samplePayloads() {
		frames = append(frames, AppendFrame(nil, Frame{From: ap(i), To: ap(i + 1), Class: 1, TTL: 8, Payload: p}))
	}
	datagram := bytes.Join(frames, nil)
	rest := datagram
	for i, want := range frames {
		n, err := FrameLen(rest)
		if err != nil || n != len(want) {
			t.Fatalf("frame %d: FrameLen = %d, %v; want %d", i, n, err, len(want))
		}
		if _, err := DecodeFrame(rest[:n]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		rest = rest[n:]
	}
	if _, err := DecodeFrame(datagram); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a %d-frame datagram decoded as one frame: %v", len(frames), err)
	}
	for _, b := range [][]byte{nil, frames[0][:envelopeSize+payloadHeaderSize-1], frames[0][:len(frames[0])-1]} {
		if _, err := FrameLen(b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("FrameLen of a %d-byte stub: %v, want ErrTruncated", len(b), err)
		}
	}
}

// TestTokenHopsPastU16Malformed: the codec carries a token's hop count
// as a u32, but a Token counts 16 bits of hops, so the decoder takes
// 65 535 and refuses one more rather than wrap it.
func TestTokenHopsPastU16Malformed(t *testing.T) {
	b := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 1, TTL: 2, Payload: TokenMsg{Tok: sampleToken()}})
	hops := envelopeSize + payloadHeaderSize + 31 // GID, Ring, Holder, Round, Dir, Source
	if got := binary.LittleEndian.Uint32(b[hops:]); got != uint32(sampleToken().Hops) {
		t.Fatalf("hop count at body offset 31 reads %d, want %d", got, sampleToken().Hops)
	}
	binary.LittleEndian.PutUint32(b[hops:], math.MaxUint16)
	fr, err := DecodeFrame(b)
	if err != nil || fr.Payload.(TokenMsg).Tok.Hops != math.MaxUint16 {
		t.Fatalf("a token of 65535 hops decodes to %+v, %v", fr.Payload, err)
	}
	binary.LittleEndian.PutUint32(b[hops:], math.MaxUint16+1)
	if _, err := DecodeFrame(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a token of 65536 hops: err = %v, want ErrMalformed", err)
	}
}

// TestHostileLengthDoesNotAllocate: a length field claiming millions of
// elements over a tiny body must fail fast, not allocate. The counts
// times their record size wrap a 32-bit int, so the bound must hold
// without multiplying.
func TestHostileLengthDoesNotAllocate(t *testing.T) {
	// body frames a body the way AppendPayload does.
	body := func(k PayloadKind, b []byte) []byte {
		return append(appendU32([]byte{byte(k)}, uint32(len(b))), b...)
	}
	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		// Snapshot body: roster count claims 0xFFFFFFFF with no bytes
		// behind it.
		{"snapshot roster of 2^32-1", body(KindSnapshot, appendU32(nil, 0xFFFFFFFF)), ErrMalformed},
		// A 17-byte Notify body whose batch count is 2^30: 2^30 changes
		// of 60 bytes is 60·2^30, which is 0 modulo 2^32.
		{"notify batch of 2^30", body(KindNotify, append(appendU32(nil, 1<<30), make([]byte, 13)...)), ErrMalformed},
		// A reply of 2^31 members reads as a negative int on 32 bits.
		{"reply of 2^31 members", body(KindQueryReply, append(make([]byte, 13), appendU32(nil, 1<<31)...)), ErrMalformed},
		// A body length past 2^31 is a negative int on 32 bits too.
		{"body length 2^32-1", append(appendU32([]byte{byte(KindProbe)}, 0xFFFFFFFF), make([]byte, 8)...), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodePayload(tc.b, nil); !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			// At most the small box of the refused payload.
			if allocs := testing.AllocsPerRun(10, func() { decodePayload(tc.b, nil) }); allocs > 1 {
				t.Fatalf("a refused body allocates %.0f times", allocs)
			}
		})
	}
	frame := AppendFrame(nil, Frame{Payload: Probe{Seq: 1}})
	binary.LittleEndian.PutUint32(frame[envelopeSize+1:], 0xFFFFFFFF)
	if n, err := FrameLen(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("FrameLen of a 2^32-1 body length = %d, %v; want ErrTruncated", n, err)
	}
}

// TestBulkEncodersMatchPerField: the list sections written as records
// in place, and the round bodies written through pointer payloads, are
// the bytes the per-field encoders wrote, appended after whatever the
// buffer held.
func TestBulkEncodersMatchPerField(t *testing.T) {
	members := make([]ids.MemberInfo, 300)
	for i := range members {
		members[i] = sampleMember(i)
		members[i].Status = ids.Status(i % 5)
	}
	batch := make(mq.Batch, 40)
	for i := range batch {
		batch[i] = sampleChange(i)
		batch[i].Op = mq.Op(i % 7)
	}
	var tombs []Tombstone
	var roster []ids.NodeID
	for i := 0; i < 50; i++ {
		tombs = append(tombs, Tombstone{GUID: ids.GUID(1<<63 | uint64(i)), Ver: uint16(65530 + i)})
		roster = append(roster, ids.MakeNodeID(ids.TierAG, i))
	}
	prefix := []byte{1, 2, 3}
	type bulkCase struct {
		name      string
		bulk, ref func([]byte) []byte
	}
	cases := []bulkCase{
		{"members", func(b []byte) []byte { return appendMembers(b, members) }, func(b []byte) []byte { return refAppendMembers(b, members) }},
		{"no members", func(b []byte) []byte { return appendMembers(b, nil) }, func(b []byte) []byte { return refAppendMembers(b, nil) }},
		{"member", func(b []byte) []byte { return appendMemberInfo(b, members[7]) }, func(b []byte) []byte { return refAppendMemberInfo(b, members[7]) }},
		{"batch", func(b []byte) []byte { return appendBatch(b, batch) }, func(b []byte) []byte { return refAppendBatch(b, batch) }},
		{"tombstones", func(b []byte) []byte { return appendTombstones(b, tombs) }, func(b []byte) []byte { return refAppendTombstones(b, tombs) }},
		{"node ids", func(b []byte) []byte { return appendNodeIDs(b, roster) }, func(b []byte) []byte { return refAppendNodeIDs(b, roster) }},
	}
	for _, p := range roundBodies() {
		cases = append(cases, bulkCase{p.PayloadKind().String(), p.AppendTo, func(b []byte) []byte { return refAppendRoundBody(b, p) }})
	}
	for _, tc := range cases {
		// Into a buffer that must grow and into one with room to spare.
		for _, room := range []int{0, 1 << 16} {
			want := tc.ref(append(make([]byte, 0, room), prefix...))
			if got := tc.bulk(append(make([]byte, 0, room), prefix...)); !bytes.Equal(got, want) {
				t.Fatalf("%s into a %d-byte buffer:\n got %x\nwant %x", tc.name, room, got, want)
			}
		}
	}
}

// roundBodies are the five bodies a ring round sends, each with fields
// that no other field's bytes could stand in for.
func roundBodies() []Payload {
	return []Payload{
		TokenMsg{Tok: sampleToken()},
		&Notify{Batch: mq.Batch{sampleChange(1), sampleChange(2)}, From: ring.ID{Tier: ids.TierAG, Index: 2}, Up: true, NewLeader: ap(6), Seq: 17},
		&PassAck{Holder: ap(4), Round: 1<<40 | 9},
		&HolderAck{Ring: ring.ID{Tier: ids.TierAP, Index: 3}, Round: 21, Count: 4},
		&NotifyAck{Seq: 17},
	}
}

// roundBodyFrames are the frames of roundBodies, pinned when Notify and
// the three acknowledgements were value payloads: a pointer payload
// encodes to the very same bytes.
var roundBodyFrames = map[PayloadKind]string{
	KindTokenMsg:  "524705020802000000000000400300000000000040030000e001c8000000070000e001040000000200000000000040630000000000000001020200000005000000010200000001070000e0640000000000000001000000010000000000004000feff040000000000004001000000000000408403000000000000010000000000000001070000e0650000000000000002000000020000000000004000ffff050000000000004001000000000000408503000000000000020000000000000003000000020000000000004003000000000000400400000000000040010000000300000000000040",
	KindNotify:    "524705020802000000000000400300000000000040030000e003930000000200000001070000e0650000000000000002000000020000000000004000ffff050000000000004001000000000000408503000000000000020000000000000001070000e0660000000000000003000000030000000000004000000006000000000000400100000000000040860300000000000003000000000000000202000000010007000000000000401100000000000000",
	KindPassAck:   "524705020802000000000000400300000000000040030000e0051000000005000000000000400900000000010000",
	KindHolderAck: "524705020802000000000000400300000000000040030000e006110000000103000000150000000000000004000000",
	KindNotifyAck: "524705020802000000000000400300000000000040030000e004080000001100000000000000",
}

// TestRoundBodyFramesGolden: a frame of each round body is byte for byte
// the frame the value payloads encoded to, and decodes back to it, so
// processes of either build read each other's rounds.
func TestRoundBodyFramesGolden(t *testing.T) {
	for _, p := range roundBodies() {
		b := AppendFrame(nil, Frame{From: ap(1), To: ap(2), Group: ids.NewGroupID(3), Class: 2, TTL: 8, Payload: p})
		if got, want := hex.EncodeToString(b), roundBodyFrames[p.PayloadKind()]; got != want {
			t.Errorf("%s frame:\n got %s\nwant %s", p.PayloadKind(), got, want)
		}
		f, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.PayloadKind(), err)
		}
		if !reflect.DeepEqual(f.Payload, p) {
			t.Errorf("%s: decoded %#v, want %#v", p.PayloadKind(), f.Payload, p)
		}
	}
}
