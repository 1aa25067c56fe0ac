package wire

import (
	"reflect"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
)

// TestRecycleGuard: under the guard a handed-back body reads as no
// round of any ring, a body handed back twice panics, and Take hands
// out what Put kept, newest first.
func TestRecycleGuard(t *testing.T) {
	RecycleGuard.Store(true)
	defer RecycleGuard.Store(false)
	free := NewBodies(1)
	tok := sampleToken()
	free.Recycle(TokenMsg{Tok: tok})
	if tok.Ring != poisonRing || tok.Holder != poisonNode || tok.Round != poisonRound || tok.Ops != nil || tok.Route != nil {
		t.Fatalf("a handed-back token was not poisoned: %+v", tok)
	}
	n := &Notify{Batch: mq.Batch{{Op: mq.OpMemberJoin}}, Up: true, Seq: 4}
	free.Recycle(n)
	if n.Batch != nil || n.Seq != poisonRound || n.From != poisonRing {
		t.Fatalf("a handed-back notification was not poisoned: %+v", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a notification handed back twice did not panic")
			}
		}()
		free.Recycle(n)
	}()
	if free.Notifies.Take() != n || free.Tokens.Take() != tok {
		t.Error("Take did not hand out the bodies Put kept")
	}
	for range bodyFreeMin + 3 {
		free.PassAcks.Put(new(PassAck))
	}
	if len(free.PassAcks.free) != bodyFreeMin {
		t.Errorf("a free list of a one-ring engine keeps %d bodies, bound %d", len(free.PassAcks.free), bodyFreeMin)
	}
}

// TestDecodeFrameIntoRoundBodies: a round body decoded into a target
// lands in the target's value of its kind, and Adopt hands its receiver
// a body of the lists carrying the same message, sharing the token's
// slices; DecodeFrame's bodies are new. Adopt on nil lists makes one.
func TestDecodeFrameIntoRoundBodies(t *testing.T) {
	var into DecodeTarget
	free := NewBodies(1)
	for _, p := range []Payload{
		TokenMsg{Tok: sampleToken()},
		&Notify{Batch: mq.Batch{sampleChange(1)}, From: ring.ID{Tier: ids.TierAG, Index: 1}, Up: true, Seq: 3},
		&PassAck{Holder: ap(2), Round: 5},
		&HolderAck{Ring: ring.ID{Tier: ids.TierAP, Index: 2}, Round: 6, Count: 2},
		&NotifyAck{Seq: 7},
	} {
		b := AppendFrame(nil, Frame{From: ap(0), To: ap(1), Class: 1, Payload: p})
		f, err := DecodeFrameInto(b, &into)
		if err != nil {
			t.Fatal(err)
		}
		target := map[PayloadKind]any{
			KindTokenMsg: &into.Token, KindNotify: &into.Notify, KindPassAck: &into.PassAck,
			KindHolderAck: &into.HolderAck, KindNotifyAck: &into.NotifyAck,
		}[p.PayloadKind()]
		if body := bodyOf(f.Payload); body != target {
			t.Errorf("%s was decoded outside the target", p.PayloadKind())
		}
		fresh, _ := DecodeFrame(b)
		if bodyOf(fresh.Payload) == target {
			t.Errorf("DecodeFrame decoded %s into a target", p.PayloadKind())
		}

		kept := NewBodies(1)
		kept.Recycle(fresh.Payload)
		for _, lists := range []*Bodies{&kept, nil} {
			adopted := lists.Adopt(f.Payload)
			if !reflect.DeepEqual(adopted, p) || bodyOf(adopted) == target {
				t.Fatalf("Adopt of %s: %+v, want a copy of %+v", p.PayloadKind(), adopted, p)
			}
			if lists != nil && bodyOf(adopted) != bodyOf(fresh.Payload) {
				t.Errorf("Adopt of %s did not take its body off the lists", p.PayloadKind())
			}
			if tm, ok := adopted.(TokenMsg); ok && &tm.Tok.Route[0] != &into.Token.Route[0] {
				t.Error("an adopted token copied its route")
			}
			free.Recycle(adopted)
		}
	}
	if q := (QueryReply{ID: 1}); !reflect.DeepEqual(free.Adopt(q), q) {
		t.Error("Adopt changed a payload that is no round body")
	}
}

// bodyOf returns the pointer a round body payload carries.
func bodyOf(p Payload) any {
	if m, ok := p.(TokenMsg); ok {
		return m.Tok
	}
	return p
}
