package wire

import (
	"bytes"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestPreTombstoneBodiesDecodeWithNilTombstones is the one-directional
// compatibility contract of the optional trailing tombstone section: a
// Snapshot or MergeRequest body emitted by a pre-tombstone build —
// exactly the current layout minus the trailing section — still
// decodes, with a nil Tombstones slice, and canonicalizing it appends
// the (empty) section back.
func TestPreTombstoneBodiesDecodeWithNilTombstones(t *testing.T) {
	payloads := []Payload{
		Snapshot{
			Roster:  []ids.NodeID{ap(0), ap(1), ap(2)},
			Leader:  ap(1),
			Members: []ids.MemberInfo{sampleMember(0), sampleMember(1)},
		},
		MergeRequest{
			Roster:  []ids.NodeID{ap(3)},
			Members: []ids.MemberInfo{sampleMember(3)},
		},
	}
	for _, p := range payloads {
		full := AppendPayload(nil, p)
		// Strip the empty trailing section (its u32 count) and fix the
		// body length header — the byte-exact legacy encoding.
		legacy := append([]byte(nil), full[:len(full)-4]...)
		bodyLen := len(legacy) - payloadHeaderSize
		legacy[1] = byte(bodyLen)
		legacy[2] = byte(bodyLen >> 8)
		legacy[3] = byte(bodyLen >> 16)
		legacy[4] = byte(bodyLen >> 24)

		got, n, err := DecodePayload(legacy)
		if err != nil {
			t.Fatalf("%s: legacy body decode: %v", p.PayloadKind(), err)
		}
		if n != len(legacy) {
			t.Fatalf("%s: consumed %d of %d legacy bytes", p.PayloadKind(), n, len(legacy))
		}
		switch g := got.(type) {
		case Snapshot:
			if g.Tombstones != nil {
				t.Fatalf("snapshot: legacy body decoded tombstones %v", g.Tombstones)
			}
		case MergeRequest:
			if g.Tombstones != nil {
				t.Fatalf("merge-request: legacy body decoded tombstones %v", g.Tombstones)
			}
		default:
			t.Fatalf("%s: decoded as %T", p.PayloadKind(), got)
		}
		// Canonical re-encode reinstates the section byte-for-byte.
		if !bytes.Equal(AppendPayload(nil, got), full) {
			t.Fatalf("%s: canonicalized legacy body differs from current encoding", p.PayloadKind())
		}
	}
}

// TestTombstoneSectionTruncation: a section cut mid-entry (or inside
// its count word) is a truncation error, never a misparse or panic.
func TestTombstoneSectionTruncation(t *testing.T) {
	full := AppendPayload(nil, Snapshot{
		Roster:     []ids.NodeID{ap(0)},
		Leader:     ap(0),
		Tombstones: []Tombstone{{GUID: 7, Ver: 1}, {GUID: 9, Ver: 4}},
	})
	for _, strip := range []int{1, tombstoneSize - 1, tombstoneSize + 1, 2*tombstoneSize + 2} {
		cut := append([]byte(nil), full[:len(full)-strip]...)
		bodyLen := len(cut) - payloadHeaderSize
		cut[1] = byte(bodyLen)
		cut[2] = byte(bodyLen >> 8)
		cut[3] = byte(bodyLen >> 16)
		cut[4] = byte(bodyLen >> 24)
		if _, _, err := DecodePayload(cut); err == nil {
			t.Errorf("strip %d: truncated tombstone section decoded", strip)
		}
	}
}

// TestGroupTagRoundTrip: the envelope carries the group word.
func TestGroupTagRoundTrip(t *testing.T) {
	gid := ids.NewGroupID(42)
	b := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Group: gid, Class: 1, TTL: 8, Payload: Probe{Seq: 9}})
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Group != gid {
		t.Fatalf("group = %v, want %v", got.Group, gid)
	}
	// A truncated group word is a truncation error, not a misparse.
	if _, err := DecodeFrame(b[:envelopeSize-2]); err == nil {
		t.Fatal("truncated envelope decoded")
	}
}
