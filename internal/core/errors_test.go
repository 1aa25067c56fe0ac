package core

import (
	"errors"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestMemberOperationErrors is the table-driven contract for the
// typed errors that replaced the old mustMember/mustAP panics: every
// invalid input maps to a matchable sentinel, and valid follow-ups
// (re-join after leave) stay allowed.
func TestMemberOperationErrors(t *testing.T) {
	cases := []struct {
		name string
		op   func(sys *System) error
		want error
	}{
		{
			name: "join with zero GUID",
			op: func(sys *System) error {
				_, err := sys.JoinMemberAt(ids.GUID(0), sys.APs()[0])
				return err
			},
			want: ErrInvalidGUID,
		},
		{
			name: "join at an AG (non-AP node)",
			op: func(sys *System) error {
				ag := sys.Hierarchy().Level(0)[0].Nodes()[0]
				_, err := sys.JoinMemberAt(ids.GUID(1), ag)
				return err
			},
			want: ErrNotAccessProxy,
		},
		{
			name: "join at a nonexistent node",
			op: func(sys *System) error {
				_, err := sys.JoinMemberAt(ids.GUID(1), ids.MakeNodeID(ids.TierBR, 9999))
				return err
			},
			want: ErrNotAccessProxy,
		},
		{
			name: "duplicate join of an operational member",
			op: func(sys *System) error {
				if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[0]); err != nil {
					return err
				}
				_, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[1])
				return err
			},
			want: ErrDuplicateJoin,
		},
		{
			name: "leave of an unknown member",
			op: func(sys *System) error {
				return sys.LeaveMember(ids.GUID(42))
			},
			want: ErrUnknownMember,
		},
		{
			name: "failure of an unknown member",
			op: func(sys *System) error {
				return sys.FailMember(ids.GUID(42))
			},
			want: ErrUnknownMember,
		},
		{
			name: "handoff of an unknown member",
			op: func(sys *System) error {
				return sys.HandoffMember(ids.GUID(42), sys.APs()[1])
			},
			want: ErrUnknownMember,
		},
		{
			name: "handoff of a member that has left",
			op: func(sys *System) error {
				if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[0]); err != nil {
					return err
				}
				sys.Run()
				if err := sys.LeaveMember(ids.GUID(1)); err != nil {
					return err
				}
				sys.Run()
				return sys.HandoffMember(ids.GUID(1), sys.APs()[1])
			},
			want: ErrUnknownMember,
		},
		{
			name: "handoff to a non-AP node",
			op: func(sys *System) error {
				if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[0]); err != nil {
					return err
				}
				ag := sys.Hierarchy().Level(0)[0].Nodes()[0]
				return sys.HandoffMember(ids.GUID(1), ag)
			},
			want: ErrNotAccessProxy,
		},
		{
			name: "query at an out-of-range level",
			op: func(sys *System) error {
				_, err := sys.RunQuery(sys.APs()[0], IMS(7))
				return err
			},
			want: ErrQueryLevel,
		},
		{
			name: "query from a non-AP entry",
			op: func(sys *System) error {
				ag := sys.Hierarchy().Level(0)[0].Nodes()[0]
				_, err := sys.RunQuery(ag, TMS())
				return err
			},
			want: ErrNotAccessProxy,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(quietConfig(2, 5))
			if err := tc.op(sys); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRejoinAfterLeaveAllowed pins the duplicate-join boundary: only
// an *operational* member is rejected; a departed or failed one may
// come back.
func TestRejoinAfterLeaveAllowed(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	sys.Run()
	if err := sys.LeaveMember(ids.GUID(1)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	sys.Run()
	if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[2]); err != nil {
		t.Fatalf("re-join after leave: %v", err)
	}
	sys.Run()
	if err := sys.FailMember(ids.GUID(1)); err != nil {
		t.Fatalf("fail: %v", err)
	}
	sys.Run()
	if _, err := sys.JoinMemberAt(ids.GUID(1), sys.APs()[3]); err != nil {
		t.Fatalf("re-join after failure: %v", err)
	}
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
}

// TestErrorsDoNotMutateState: a rejected operation must leave no
// trace — no member record, no queued change, no messages.
func TestErrorsDoNotMutateState(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	ag := sys.Hierarchy().Level(0)[0].Nodes()[0]
	if _, err := sys.JoinMemberAt(ids.GUID(5), ag); err == nil {
		t.Fatal("expected error")
	}
	if _, ok := sys.Member(ids.GUID(5)); ok {
		t.Error("rejected join left a member record")
	}
	sys.Run()
	if got := sys.Transport().Stats().Sent; got != 0 {
		t.Errorf("rejected join sent %d messages", got)
	}
	if got := len(sys.GlobalMembership()); got != 0 {
		t.Errorf("membership = %d after rejected join", got)
	}

	// A handoff, leave or failure of a member that has left or failed
	// is rejected the same way: a Member-Handoff would make it
	// operational again, and a second removal would be reported twice.
	aps := sys.APs()
	again := map[string]func(ids.GUID) error{
		"handoff": func(g ids.GUID) error { return sys.HandoffMember(g, aps[1]) },
		"leave":   sys.LeaveMember,
		"failure": sys.FailMember,
	}
	for i, remove := range []func(ids.GUID) error{sys.LeaveMember, sys.FailMember} {
		g := ids.GUID(10 + i)
		if _, err := sys.JoinMemberAt(g, aps[0]); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if err := remove(g); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if _, ok := sys.Member(g); ok {
			t.Fatalf("the record of %s outlives its committed departure", g)
		}
		kept, ok := sys.left[g]
		if !ok {
			t.Fatalf("departed %s left no endpoint and version", g)
		}
		for op, fn := range again {
			sent := sys.Transport().Stats().Sent
			if err := fn(g); !errors.Is(err, ErrUnknownMember) {
				t.Fatalf("%s of departed %s: err = %v, want ErrUnknownMember", op, g, err)
			}
			sys.Run()
			if _, ok := sys.Member(g); ok || sys.left[g] != kept {
				t.Errorf("rejected %s changed what is kept of %s: %+v, was %+v", op, g, sys.left[g], kept)
			}
			if got := sys.Transport().Stats().Sent; got != sent {
				t.Errorf("rejected %s of %s sent %d messages", op, g, got-sent)
			}
			if got := len(sys.GlobalMembership()); got != 0 {
				t.Errorf("membership = %v after rejected %s of %s", sys.GlobalMembership(), op, g)
			}
		}
	}
}
