package ring

import (
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

func ap(i int) ids.NodeID { return ids.MakeNodeID(ids.TierAP, i) }

func newRing(n int) *Ring {
	nodes := make([]ids.NodeID, n)
	for i := range nodes {
		nodes[i] = ap(i)
	}
	return New(ID{Tier: ids.TierAP, Index: 0}, nodes)
}

func TestNewBasics(t *testing.T) {
	r := newRing(5)
	if r.Size() != 5 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Leader() != ap(0) {
		t.Fatalf("Leader = %s", r.Leader())
	}
	if r.ID().String() != "APR-0" {
		t.Fatalf("ID = %s", r.ID())
	}
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":     func() { New(ID{}, nil) },
		"duplicate": func() { New(ID{}, []ids.NodeID{ap(1), ap(1)}) },
		"zero":      func() { New(ID{}, []ids.NodeID{ids.NoNode}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStringRendering(t *testing.T) {
	r := newRing(2)
	if got := r.String(); got != "APR-0{AP-0* AP-1}" {
		t.Fatalf("String = %q", got)
	}
}
