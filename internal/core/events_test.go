package core

import (
	"fmt"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

// watchOf adapts fn to the observer as a Watch subscriber hears it:
// commits and repairs, never a round or a batch.
func watchOf(fn func(Event)) func(Observation) {
	return func(o Observation) {
		if o.Kind.Watched() {
			fn(o.Event)
		}
	}
}

// memberEvents counts the member events a sink hears, by kind and GUID.
type memberEvents map[string]int

func (m memberEvents) hear(e Event) {
	if e.Kind != EventRepair {
		m[fmt.Sprintf("%s %s", e.Kind, e.Member.GUID)]++
	}
}

// TestReportOnceWhenReporterCrashes: the first hosted topmost entity
// crashes right after a join was reported. The entities that apply the
// join after it find it holding the join, so nobody reports it again.
func TestReportOnceWhenReporterCrashes(t *testing.T) {
	for _, h := range []int{2, 3} {
		for ap := range NewSystem(quietConfig(h, 3)).APs() {
			t.Run(fmt.Sprintf("h=%d/ap=%d", h, ap), func(t *testing.T) {
				sys := NewSystem(quietConfig(h, 3))
				heard := memberEvents{}
				sys.SetObserver(watchOf(func(e Event) {
					if len(heard) == 0 && e.Kind == EventJoin {
						sys.Clock().After(0, func() { sys.CrashNE(sys.top[0].id) })
					}
					heard.hear(e)
				}))
				if _, err := sys.JoinMemberAt(1, sys.APs()[ap]); err != nil {
					t.Fatal(err)
				}
				sys.Run()
				if n := heard["join "+ids.GUID(1).String()]; n != 1 || len(heard) != 1 {
					t.Fatalf("heard %v, want the join once", heard)
				}
			})
		}
	}
}

// TestReportOnceAcrossCut: a cut splits the topmost ring of one System
// and each side commits a join. Each join is reported once, by the side
// that committed it, and the merge that unites the lists reports
// nothing: every entity it brings a member to holds it already on the
// other side.
func TestReportOnceAcrossCut(t *testing.T) {
	sys := NewSystem(cutConfig(1, 6))
	roster := sys.Node(sys.APs()[0]).Roster()
	heard := memberEvents{}
	sys.SetObserver(watchOf(heard.hear))

	kept, split := splitByCut(t, sys, roster, 3, 4)
	want := memberEvents{"join " + ids.GUID(3).String(): 1, "join " + ids.GUID(4).String(): 1}
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Fatalf("before the merge heard %v, want %v", heard, want)
	}
	sendMergeRequest(sys, split, kept)
	sys.Run()
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Fatalf("after the merge heard %v, want %v", heard, want)
	}
	if got := len(sys.GlobalMembership()); got != 2 {
		t.Fatalf("merged view holds %d members, want 2", got)
	}
}
