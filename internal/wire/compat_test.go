package wire

import (
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

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
		if _, _, err := decodePayload(cut, nil); err == nil {
			t.Errorf("strip %d: truncated tombstone section decoded", strip)
		}
	}
}

// TestGroupTagRoundTrip: the envelope carries the group word.
func TestGroupTagRoundTrip(t *testing.T) {
	gid := ids.NewGroupID(42)
	b := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Group: gid, Class: 1, Payload: Probe{Seq: 9}})
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
