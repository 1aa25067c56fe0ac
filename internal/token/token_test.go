package token

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
)

// fresh returns a new token of the given round.
func fresh(ringID ring.ID, holder ids.NodeID, round uint64, ops mq.Batch, dir Direction, source ring.ID) *Token {
	t := new(Token)
	t.Reset(ringID, holder, round, ops, dir, source)
	return t
}

func TestFreshAndFold(t *testing.T) {
	holder := ids.MakeNodeID(ids.TierAP, 0)
	// A reused token starts the new round with nothing of the old one.
	tok := &Token{Repaired: true, Ops: mq.Batch{{Op: mq.OpMemberJoin}}, Route: []ids.NodeID{holder}, Contributors: []ids.NodeID{holder}}
	tok.Reset(ring.ID{Tier: ids.TierAP, Index: 0}, holder, 3, nil, FromLocal, ring.ID{})
	if len(tok.Ops) != 0 || tok.Route != nil || tok.Contributors != nil || tok.Repaired {
		t.Fatalf("a reset token keeps its last round: %+v", tok)
	}
	if tok.Holder != holder || tok.Round != 3 {
		t.Fatal("token fields wrong")
	}
	// A token without ops takes the drained batch itself.
	batch := mq.Batch{{Op: mq.OpMemberJoin, Member: ids.MemberInfo{GUID: 1}}}
	tok.Fold(batch)
	if len(tok.Ops) != 1 || unsafe.SliceData(tok.Ops) != unsafe.SliceData(batch) {
		t.Fatalf("fold copied the batch or lost it: %+v", tok.Ops)
	}
	// Folding an empty batch is a no-op.
	tok.Fold(nil)
	if len(tok.Ops) != 1 || unsafe.SliceData(tok.Ops) != unsafe.SliceData(batch) {
		t.Fatalf("an empty fold changed the ops: %+v", tok.Ops)
	}
	// A token with ops appends the batch after them, and the batch it
	// was given first stays as it was.
	tok.Ops = slices.Clip(tok.Ops)
	tok.Fold(mq.Batch{{Op: mq.OpMemberLeave, Member: ids.MemberInfo{GUID: 2}}})
	if len(tok.Ops) != 2 || tok.Ops[0].Member.GUID != 1 || tok.Ops[1].Member.GUID != 2 {
		t.Fatalf("fold onto a token with ops gave %+v", tok.Ops)
	}
	if len(batch) != 1 || batch[0].Member.GUID != 1 {
		t.Fatalf("the second fold wrote the first batch: %+v", batch)
	}
	if tok.Contributors != nil {
		t.Fatalf("fold recorded contributors %v", tok.Contributors)
	}
}

// TestCloneSharesNothing: writing through any slice of a clone leaves
// the original as it was.
func TestCloneSharesNothing(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 0), ids.MakeNodeID(ids.TierAP, 1)
	tok := fresh(ring.ID{Tier: ids.TierAP}, a, 3, mq.Batch{{Op: mq.OpMemberJoin}}, FromLocal, ring.ID{})
	tok.Route = []ids.NodeID{a, b}
	tok.Contributors = []ids.NodeID{a}
	c := tok.Clone()
	c.Ops[0].Op = mq.OpMemberLeave
	c.Route[0] = b
	c.Contributors[0] = b
	c.Repaired = true
	if tok.Ops[0].Op != mq.OpMemberJoin || tok.Route[0] != a || tok.Contributors[0] != a || tok.Repaired {
		t.Fatalf("writing through the clone changed the original: %+v", tok)
	}
	if empty := (&Token{}).Clone(); empty.Ops != nil || empty.Route != nil || empty.Contributors != nil {
		t.Fatalf("the clone of a token without slices has %+v", empty)
	}
}

// TestTokenSize: a token pass keeps a copy of the token, so its size is
// what every pass holds. 112 bytes is the 112-byte class; an int
// Hops makes it 120, in the 128-byte class, and a ring.ID with a 64-bit
// index 136, in the 144-byte class.
func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 112 {
		t.Fatalf("Token is %d bytes, want 112", got)
	}
	if got := unsafe.Sizeof(ring.ID{}); got != 8 {
		t.Fatalf("ring.ID is %d bytes, want 8", got)
	}
}

// TestDropFromRouteLeavesSharedRoute: a holder shares one itinerary
// between its rounds, so dropping an entity builds a new route.
func TestDropFromRouteLeavesSharedRoute(t *testing.T) {
	a, b, c := ids.MakeNodeID(ids.TierAP, 0), ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	shared := []ids.NodeID{a, b, c}
	tok := &Token{Holder: a, Route: shared}
	tok.DropFromRoute(b)
	if !slices.Equal(tok.Route, []ids.NodeID{a, c}) {
		t.Fatalf("route after dropping %s = %v", b, tok.Route)
	}
	if !slices.Equal(shared, []ids.NodeID{a, b, c}) {
		t.Fatalf("dropping %s wrote the shared route: %v", b, shared)
	}
}

func TestDirectionString(t *testing.T) {
	if FromLocal.String() != "local" || FromChild.String() != "from-child" || FromParent.String() != "from-parent" {
		t.Error("direction names wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction should render")
	}
}

func TestTokenString(t *testing.T) {
	tok := fresh(ring.ID{Tier: ids.TierAG, Index: 2},
		ids.MakeNodeID(ids.TierAG, 5), 1, nil, FromChild, ring.ID{Tier: ids.TierAP, Index: 7})
	if tok.String() == "" {
		t.Error("empty String")
	}
}

func TestRetransmitPolicy(t *testing.T) {
	p := DefaultRetransmitPolicy()
	if p.MaxRetries != 2 {
		t.Fatalf("default retries = %d", p.MaxRetries)
	}
}
