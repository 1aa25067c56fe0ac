package core

import (
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestRejoinThroughAnotherProcess: a member that joined and left
// through process 0 re-joins through process 1, which has no record of
// it, or through process 1 after it restarted and was re-admitted, at an
// access proxy of process 1 or of process 2. Every ring holds the
// member's leave at a version process 1 never saw, so the join must go
// past it: at quiescence every System's top ring lists the member at
// the new access proxy, every live entity's ListOfRingMembers agrees
// with its top ring, and every System's Watch heard the join.
func TestRejoinThroughAnotherProcess(t *testing.T) {
	const g = ids.GUID(7)
	for _, restart := range []bool{false, true} {
		for _, apSlot := range []int{1, 2} {
			name := "another-process"
			if restart {
				name = "restarted-process"
			}
			t.Run(name+"/ap-of-slot-"+string(rune('0'+apSlot)), func(t *testing.T) {
				p := newProcs(quietConfig(3, 3), 3)
				if _, err := p.sys[0].JoinMemberAt(g, p.apsOf(0)[0]); err != nil {
					t.Fatal(err)
				}
				p.rt.Run()
				if err := p.sys[0].LeaveMember(g); err != nil {
					t.Fatal(err)
				}
				p.rt.Run()
				via := p.sys[1]
				if restart {
					via = p.restart(1)
				}
				replays := make([]watchReplay, len(p.sys))
				for i, sys := range p.sys {
					replays[i] = watchReplay{}
					sys.SetObserver(watchOf(replays[i].hear))
				}
				ap := p.apsOf(apSlot)[0]
				if _, err := via.JoinMemberAt(g, ap); err != nil {
					t.Fatal(err)
				}
				p.rt.Run()
				for i, sys := range p.sys {
					listed := false
					for _, m := range sys.GlobalMembership() {
						listed = listed || m.GUID == g && m.AP == ap
					}
					if !listed {
						t.Fatalf("system %d: the top ring does not list %s at %s: %v", i, g, ap, sys.GlobalMembership())
					}
					if msg := coverageMismatch(sys); msg != "" {
						t.Fatalf("system %d: %s", i, msg)
					}
					if replays[i][g] != ap {
						t.Fatalf("system %d: Watch did not hear %s join at %s", i, g, ap)
					}
				}
			})
		}
	}
}

// TestTrapRejoinThroughClientProcess is the case the fix above does not
// reach: a process that hosts no topmost entity (a pure client) knows
// no version of the member but its own record's, so its re-join goes
// out at version 1 and every ring, holding the leave at version 2,
// drops it. Delete the skip to see it.
func TestTrapRejoinThroughClientProcess(t *testing.T) {
	t.Skip("a pure client's join starts at its own record's version; see ROADMAP item 25")
	const g = ids.GUID(7)
	p := newProcs(quietConfig(3, 3), 3)
	if _, err := p.sys[0].JoinMemberAt(g, p.apsOf(0)[0]); err != nil {
		t.Fatal(err)
	}
	p.rt.Run()
	if err := p.sys[0].LeaveMember(g); err != nil {
		t.Fatal(err)
	}
	p.rt.Run()
	client := p.build(len(p.sys)) // a slot past the last owns no entity
	ap := p.apsOf(1)[0]
	if _, err := client.JoinMemberAt(g, ap); err != nil {
		t.Fatal(err)
	}
	p.rt.Run()
	for i, sys := range p.sys {
		listed := false
		for _, m := range sys.GlobalMembership() {
			listed = listed || m.GUID == g && m.AP == ap
		}
		if !listed {
			t.Fatalf("system %d: the top ring does not list %s at %s", i, g, ap)
		}
	}
}
