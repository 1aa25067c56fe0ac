package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// FuzzWireRoundTrip is the codec's safety oracle: decoding arbitrary
// bytes must never panic, and any input that decodes successfully must
// reach a canonical fixpoint — decode -> encode -> decode -> encode
// yields byte-identical encodings. CI runs a short -fuzz smoke of this
// target next to the des differential suite; the seed corpus below
// covers every payload kind plus every frame-level error class.
func FuzzWireRoundTrip(f *testing.F) {
	for _, p := range samplePayloads() {
		f.Add(AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 2, TTL: 8, Payload: p}))
	}
	f.Add(AppendFrame(nil, Frame{Payload: nil}))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version})
	f.Add([]byte{magic0, magic1, 99, 0, 0})

	// The partition/merge control plane rides the same codec, and its
	// frames are the ones a mid-cut network mangles in practice: seed
	// group-tagged MergeRequest/Snapshot/Probe frames whole, truncated
	// at every interesting boundary, and with the group tag mutated
	// (bytes 21..24 of the envelope) so decode either routes the frame
	// to the wrong group cleanly or rejects it — never panics.
	gid := ids.NewGroupID(9)
	mergeFrames := [][]byte{
		AppendFrame(nil, Frame{From: ap(2), To: ap(0), Group: gid, Class: 1, TTL: 4, Payload: MergeRequest{
			Roster:  []ids.NodeID{ap(2), ap(3)},
			Members: []ids.MemberInfo{sampleMember(2), sampleMember(3)},
		}}),
		AppendFrame(nil, Frame{From: ap(0), To: ap(3), Group: gid, Class: 1, TTL: 4, Payload: Snapshot{
			Roster:  []ids.NodeID{ap(0), ap(1), ap(2), ap(3)},
			Leader:  ap(0),
			Members: []ids.MemberInfo{sampleMember(0), sampleMember(1)},
		}}),
		AppendFrame(nil, Frame{From: ap(0), To: ap(4), Group: gid, Class: 1, TTL: 4, Payload: Probe{Seq: 7}}),
	}
	for _, b := range mergeFrames {
		f.Add(b)
		// Truncations: inside the envelope, at the payload header, at
		// the tail, and the empty-roster boundary cases in between.
		for _, cut := range []int{5, envelopeSize - 4, envelopeSize, envelopeSize + 1, envelopeSize + payloadHeaderSize, len(b) - 1} {
			if cut >= 0 && cut < len(b) {
				f.Add(append([]byte(nil), b[:cut]...))
			}
		}
		// Group-tag mutations: flip each tag byte, and zero the whole
		// tag (group 0, hosted by nobody unless opened).
		for off := 21; off < 25; off++ {
			mut := append([]byte(nil), b...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
		zeroed := append([]byte(nil), b...)
		for off := 21; off < 25; off++ {
			zeroed[off] = 0
		}
		f.Add(zeroed)
	}

	// Batched view changes put the largest repeated section on the
	// wire: a token whose Ops batch coalesced a whole churn window.
	// Seed one such frame whole, truncated at every batch-element
	// boundary (the u32 count plus k full changes, for every k), and
	// cut mid-element — the repeated-section reader must classify all
	// of them as truncations, never panic or over-read.
	bigBatch := make(mq.Batch, 32)
	for i := range bigBatch {
		bigBatch[i] = sampleChange(i)
	}
	batched := AppendFrame(nil, Frame{From: ap(1), To: ap(2), Group: gid, Class: 1, TTL: 4, Payload: TokenMsg{
		Tok: &token.Token{
			GID:    ids.NewGroupID(9),
			Ring:   ring.ID{Tier: ids.TierAP, Index: 1},
			Holder: ap(1),
			Round:  3,
			Ops:    bigBatch,
			Route:  []ids.NodeID{ap(1), ap(2)},
		},
	}})
	f.Add(batched)
	// The Ops section starts after the token's fixed prefix: GID u32,
	// Ring (u8+u32), Holder u64, Round u64.
	opsStart := envelopeSize + payloadHeaderSize + 4 + 5 + 8 + 8
	for k := 0; k <= len(bigBatch); k++ {
		cut := opsStart + 4 + k*changeSize
		if cut < len(batched) {
			f.Add(append([]byte(nil), batched[:cut]...))
		}
		if mid := cut + changeSize/2; mid < len(batched) {
			f.Add(append([]byte(nil), batched[:mid]...))
		}
	}

	// Tombstone-carrying snapshot/merge frames: the trailing section,
	// whole and truncated inside its count word and at every entry
	// boundary, so a missing or mangled section is handled cleanly.
	tombFrames := [][]byte{
		AppendFrame(nil, Frame{From: ap(0), To: ap(3), Group: gid, Class: 1, TTL: 4, Payload: Snapshot{
			Roster:     []ids.NodeID{ap(0), ap(1)},
			Leader:     ap(0),
			Members:    []ids.MemberInfo{sampleMember(0)},
			Tombstones: []Tombstone{{GUID: 100, Ver: 3}, {GUID: 200, Ver: 1}, {GUID: 300, Ver: 7}},
		}}),
		AppendFrame(nil, Frame{From: ap(2), To: ap(0), Group: gid, Class: 1, TTL: 4, Payload: MergeRequest{
			Roster:     []ids.NodeID{ap(2), ap(3)},
			Members:    []ids.MemberInfo{sampleMember(2)},
			Tombstones: []Tombstone{{GUID: 102, Ver: 2}},
		}}),
		// Versions on both sides of the 16-bit wrap: a record at 65535
		// beside tombstones at 65535, 0 and 32768.
		AppendFrame(nil, Frame{From: ap(1), To: ap(0), Group: gid, Class: 1, TTL: 4, Payload: MergeRequest{
			Roster:     []ids.NodeID{ap(1)},
			Members:    []ids.MemberInfo{sampleMember(1), sampleMember(3)},
			Tombstones: []Tombstone{{GUID: 101, Ver: 65535}, {GUID: 104, Ver: 0}, {GUID: 105, Ver: 32768}},
		}}),
	}
	for _, b := range tombFrames {
		f.Add(b)
		for _, strip := range []int{1, 2, tombstoneSize - 1, tombstoneSize, tombstoneSize + 3, 2 * tombstoneSize} {
			if strip < len(b) {
				f.Add(append([]byte(nil), b[:len(b)-strip]...))
			}
		}
	}

	// The discovery plane (seed bootstrap + gossip) adds the only
	// variable-length strings on the wire: seed PeerHello/PeerList
	// frames whole and truncated at every envelope boundary — including
	// mid-string cuts, where the u16 length prefix must catch the short
	// read — following the same conventions as the merge corpus above.
	discFrames := [][]byte{
		AppendFrame(nil, Frame{Class: 5, TTL: 1, Payload: PeerHello{
			Seq: 11, Slot: 2, Addr: "127.0.0.1:7002",
		}}),
		AppendFrame(nil, Frame{Class: 5, TTL: 1, Payload: PeerHello{Slot: -1}}),
		AppendFrame(nil, Frame{Class: 5, TTL: 1, Payload: PeerList{
			Seq: 11, H: 2, R: 3, Slots: 3, Peers: []PeerEntry{
				{Slot: 0, State: 0, AgeMillis: 40, Addr: "127.0.0.1:7000"},
				{Slot: 1, State: 2, AgeMillis: 12000, Addr: "127.0.0.1:7001"},
			},
		}}),
		AppendFrame(nil, Frame{Class: 5, TTL: 1, Payload: PeerList{Seq: 11, H: 2, R: 3, Slots: 3}}),
	}
	for _, b := range discFrames {
		f.Add(b)
		for _, cut := range []int{5, envelopeSize - 4, envelopeSize, envelopeSize + 1, envelopeSize + payloadHeaderSize, len(b) - 1} {
			if cut >= 0 && cut < len(b) {
				f.Add(append([]byte(nil), b[:cut]...))
			}
		}
		// Cut inside the trailing address string (past its u16 length
		// prefix) so the string reader's bounds check is exercised.
		if len(b) > envelopeSize+payloadHeaderSize+8 {
			f.Add(append([]byte(nil), b[:len(b)-4]...))
		}
	}

	// A pass-ack names its token by (Holder u64, Round u64). Seed one
	// whole, cut between the two words, and with the 13-byte body it had
	// when it carried a ring.ID (u8+u32) instead of the holder: a
	// straggler in that layout must read as a truncation.
	ack := AppendFrame(nil, Frame{From: ap(1), To: ap(0), Group: gid, Class: 1, TTL: 4, Payload: &PassAck{Holder: ap(4), Round: 1 << 40}})
	f.Add(ack)
	f.Add(append([]byte(nil), ack[:len(ack)-8]...))
	old := append([]byte(nil), ack[:len(ack)-3]...)
	old[envelopeSize+1] = 13
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // malformed input is fine; panicking is not
		}
		// A reused member buffer, too small or holding stale records,
		// changes where a reply's members land, never what they are.
		stale := make([]ids.MemberInfo, len(data)/memberInfoSize+1)
		for i := range stale {
			stale[i] = sampleMember(i)
		}
		for _, buf := range [][]ids.MemberInfo{nil, stale[:0:1], stale} {
			into := DecodeTarget{Members: buf}
			frBuf, err := DecodeFrameInto(data, &into)
			if err != nil || !reflect.DeepEqual(frBuf, fr) {
				t.Fatalf("decode into a %d-slot buffer: %+v, %v; without one: %+v", cap(buf), frBuf, err, fr)
			}
		}
		enc1 := AppendFrame(nil, fr)
		fr2, err := DecodeFrame(enc1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2 := AppendFrame(nil, fr2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding not a fixpoint:\nenc1 %x\nenc2 %x", enc1, enc2)
		}
	})
}

// FuzzDatagramFrames is the datagram walk's safety oracle: splitting
// arbitrary bytes into frames with FrameLen, as the socket's read loop
// does, never panics and always ends, and every frame split off either
// decodes whole or errors. A frame that decodes spans exactly the bytes
// FrameLen gave it. CI runs a short -fuzz smoke of this target beside
// FuzzWireRoundTrip's.
func FuzzDatagramFrames(f *testing.F) {
	gid := ids.NewGroupID(9)
	frame := func(p Payload) []byte {
		return AppendFrame(nil, Frame{From: ap(0), To: ap(1), Group: gid, Class: 1, TTL: 8, Payload: p})
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	probe := frame(Probe{Seq: 3})
	ack := frame(&PassAck{Holder: ap(2), Round: 7})
	reply := frame(QueryReply{ID: 5, Members: []ids.MemberInfo{sampleMember(0), sampleMember(1)}})
	tok := frame(TokenMsg{Tok: sampleToken()})

	f.Add(cat(probe, ack))
	f.Add(cat(tok, reply, probe))
	f.Add(cat(reply, ack, reply))
	// A truncated last frame: cut inside its body, its payload header
	// and its envelope.
	three := cat(ack, probe, reply)
	for _, cut := range []int{1, 4, len(reply) - envelopeSize, len(reply) - 2} {
		f.Add(append([]byte(nil), three[:len(three)-cut]...))
	}
	// A zero-length tail: a last frame with an empty (KindNone) payload,
	// and a datagram that ends in a lone zero byte.
	f.Add(cat(probe, AppendFrame(nil, Frame{Group: gid})))
	f.Add(cat(probe, ack, []byte{0}))
	// A body length that points past the end, in the first frame and in
	// the last.
	over := cat(probe, ack)
	over[envelopeSize+1] = 0xff
	f.Add(over)
	over = cat(probe, ack)
	over[len(probe)+envelopeSize+4] = 0x7f
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		for rest := data; len(rest) > 0; {
			n, err := FrameLen(rest)
			if err != nil {
				if _, derr := DecodeFrame(rest); derr == nil {
					t.Fatalf("FrameLen refused %x (%v), which decodes", rest, err)
				}
				return
			}
			if n < envelopeSize+payloadHeaderSize || n > len(rest) {
				t.Fatalf("FrameLen = %d of %d bytes", n, len(rest))
			}
			if _, err := DecodeFrame(rest[:n]); err == nil {
				if _, err := DecodeFrame(rest[:n-1]); err == nil {
					t.Fatalf("a frame one byte short of FrameLen %d decodes", n)
				}
			}
			rest = rest[n:]
		}
	})
}

// FuzzDecodeAgainstReference is the differential oracle of the record
// readers: on arbitrary bytes, DecodeFrame and the per-field decoder it
// replaced (reference_test.go) give equal frames, or fail with the same
// error. CI runs a short -fuzz smoke of this target beside
// FuzzWireRoundTrip's.
func FuzzDecodeAgainstReference(f *testing.F) {
	gid := ids.NewGroupID(9)
	frame := func(p Payload) []byte {
		return AppendFrame(nil, Frame{From: ap(0), To: ap(1), Group: gid, Class: 1, TTL: 8, Payload: p})
	}
	// bump returns b with the u32 at off one higher: a section count one
	// past the records that follow it.
	bump := func(b []byte, off int) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[off:], binary.LittleEndian.Uint32(b[off:])+1)
		return b
	}
	body := envelopeSize + payloadHeaderSize

	// Every kind, members whose versions wrap through 0 (sampleMember),
	// and each frame cut at every length.
	for _, p := range samplePayloads() {
		b := frame(p)
		for cut := 0; cut <= len(b); cut++ {
			f.Add(append([]byte(nil), b[:cut]...))
		}
	}
	// Counts one past the records present, at the front of a body and at
	// its end.
	members := []ids.MemberInfo{sampleMember(0), sampleMember(1), sampleMember(2)}
	reply := frame(QueryReply{ID: 3, From: ring.ID{Tier: ids.TierAP, Index: 2}, Members: members})
	f.Add(bump(reply, len(reply)-len(members)*memberInfoSize-4))
	f.Add(bump(frame(&Notify{Batch: mq.Batch{sampleChange(1), sampleChange(2)}, Seq: 4}), body))
	tombs := []Tombstone{{GUID: 5, Ver: 65535}, {GUID: 6, Ver: 0}}
	snap := frame(Snapshot{Roster: []ids.NodeID{ap(0), ap(1)}, Leader: ap(0), Members: members, Tombstones: tombs})
	f.Add(bump(snap, body))
	f.Add(bump(snap, len(snap)-len(tombs)*tombstoneSize-4))
	f.Add(bump(frame(TokenMsg{Tok: sampleToken()}), body+36)) // the Ops count
	// The largest reply one datagram carries.
	big := make([]ids.MemberInfo, 2424)
	for i := range big {
		big[i] = sampleMember(i)
	}
	f.Add(frame(QueryReply{ID: 9, Members: big}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		want, refErr := refDecodeFrame(data)
		if !errors.Is(err, refErr) {
			t.Fatalf("decode: %v; per field: %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v\nper field %+v", got, want)
		}
	})
}

// FuzzDecodeIntoReusedTarget: decoding into a target that still holds
// what earlier frames left in it, as the socket's read loop does with
// each record's target, decodes what DecodeFrame decodes. The target
// first holds a full token, notification and acknowledgements, then in
// turn the decoding of each round body of samplePayloads, so a field
// the decoder skipped (a stale Contributors, Ops, Hops or Repaired)
// would show. The corpus is FuzzDecodeAgainstReference's frames, each
// cut at every length, and round bodies with every optional field
// empty. CI runs a short -fuzz smoke of this target beside
// FuzzWireRoundTrip's.
func FuzzDecodeIntoReusedTarget(f *testing.F) {
	frame := func(p Payload) []byte {
		return AppendFrame(nil, Frame{From: ap(0), To: ap(1), Group: ids.NewGroupID(9), Class: 1, TTL: 8, Payload: p})
	}
	var previous [][]byte
	for _, p := range samplePayloads() {
		b := frame(p)
		for cut := 0; cut <= len(b); cut++ {
			f.Add(append([]byte(nil), b[:cut]...))
		}
		switch p.(type) {
		case TokenMsg, *Notify, *PassAck, *HolderAck, *NotifyAck:
			previous = append(previous, b)
		}
	}
	f.Add(frame(TokenMsg{Tok: &token.Token{Ring: ring.ID{Tier: ids.TierAP, Index: 4}, Holder: ap(3), Route: []ids.NodeID{ap(3)}}}))
	f.Add(frame(&Notify{From: ring.ID{Tier: ids.TierAG}}))
	f.Add(frame(&PassAck{}))
	f.Add(frame(&HolderAck{}))
	f.Add(frame(&NotifyAck{}))

	full := DecodeTarget{
		Token:     *sampleToken(),
		Notify:    Notify{Batch: mq.Batch{sampleChange(3)}, From: ring.ID{Tier: ids.TierAG, Index: 1}, Up: true, LeaderUpdate: true, NewLeader: ap(5), Seq: 8},
		PassAck:   PassAck{Holder: ap(6), Round: 12},
		HolderAck: HolderAck{Ring: ring.ID{Tier: ids.TierAP, Index: 3}, Round: 13, Count: 4},
		NotifyAck: NotifyAck{Seq: 14},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeFrame(data)
		check := func(into *DecodeTarget, after string) {
			got, err := DecodeFrameInto(data, into)
			if !errors.Is(err, wantErr) {
				t.Fatalf("into a target holding %s: %v; fresh: %v", after, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("into a target holding %s: %+v\nfresh: %+v", after, got, want)
			}
		}
		into := full
		check(&into, "a full token, notification and acks")
		for _, b := range previous {
			if _, err := DecodeFrameInto(b, &into); err != nil {
				t.Fatal(err)
			}
			check(&into, "the decoding of "+FramePayloadKind(b).String())
		}
	})
}
