package core

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// ringPair returns a bottom-ring node and its successor.
func ringPair(sys *System) (p *Node, h ids.NodeID) {
	p = sys.Node(sys.APs()[0])
	return p, p.nextLive(p.ID())
}

// TestStaleAckLeavesPassArmed is the interleaving that used to leak a
// pass timer: H closes its round k (the last hop came from its
// predecessor P), P at once starts its own round — per-holder counters,
// so also numbered k — and passes it to H, and only then does H's ack
// of the earlier pass arrive. That ack is from the right sender with
// the right round number and still names another token: it must leave
// the new pass armed and its timer pending.
func TestStaleAckLeavesPassArmed(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	kernel := sys.Runtime().(*simnet.SimRuntime).Kernel()
	p, h := ringPair(sys)

	const k = 7
	tok := freshToken(sys.cfg.GID, p.ringID, p.id, k, nil, token.FromLocal, ring.ID{})
	tok.Route = p.Roster()
	p.passToken(tok)
	armed := kernel.Pending() // the token on its way to H, and the pass timer

	ack := func(holder ids.NodeID, from ids.NodeID) {
		p.HandleMessage(runtime.Message{From: from, To: p.id, Body: &wire.PassAck{Holder: holder, Round: k}})
	}
	ack(h, h)                   // H's ack for its own round k
	ack(p.id, p.prevLive(p.id)) // the right token, acknowledged by the wrong node
	if !p.pass.awaits(h) || kernel.Pending() != armed {
		t.Fatalf("stale ack disturbed the pass: awaiting H = %v, %d events pending (want %d)", p.pass.awaits(h), kernel.Pending(), armed)
	}

	ack(p.id, h)
	if p.pass.awaits(h) || kernel.Pending() != armed-1 {
		t.Fatalf("matching ack: awaiting H = %v, %d events pending (want %d: timer cancelled)", p.pass.awaits(h), kernel.Pending(), armed-1)
	}

	ack(p.id, h) // the duplicate a retransmitted token provokes
	if p.pass.awaits(h) || kernel.Pending() != armed-1 {
		t.Fatalf("duplicate ack was not a no-op: %d events pending (want %d)", kernel.Pending(), armed-1)
	}
}

// TestResendBudget: an unacknowledged pass is sent once, resent exactly
// MaxRetries times, and then given up exactly once — one repair, and
// the round goes on without the dead successor.
func TestResendBudget(t *testing.T) {
	cfg := quietConfig(2, 5)
	cfg.Retransmit.MaxRetries = 3
	sys := NewSystem(cfg)
	p, h := ringPair(sys)

	sends := 0
	sys.Runtime().(*simnet.SimRuntime).Net().SetTrace(func(m runtime.Message, _ string) {
		if m.Kind == runtime.KindToken && m.To == h {
			if m.From != p.id {
				t.Errorf("token for the dead %s from %s, not from its predecessor", h, m.From)
			}
			sends++
		}
	})
	sys.CrashNE(h)
	if _, err := sys.JoinMemberAt(1, p.id); err != nil {
		t.Fatal(err)
	}
	sys.Run()

	if want := 1 + cfg.Retransmit.MaxRetries; sends != want {
		t.Errorf("token sent to the dead successor %d times, want %d", sends, want)
	}
	if r := sys.Repairs(); len(r) != 1 || r[0].Dead != h || p.Repairs() != 1 {
		t.Errorf("repairs = %v (%d at the predecessor), want exactly one, of %s", r, p.Repairs(), h)
	}
	if p.pass.live {
		t.Error("pass still in flight after the run drained")
	}
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Errorf("global membership = %d, want 1", got)
	}
}

// TestGiveUpLeavesSentTokenAlone: giving up on a pass repairs the round
// in a copy of the token. The token that was sent may have arrived with
// only its ack lost, and on the simulator and between co-hosted entities
// the receiver holds that very value, so the giver must not write
// through it: not Repaired, Ops, Holder, Hops, nor Route in place.
func TestGiveUpLeavesSentTokenAlone(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	p, h := ringPair(sys)
	sys.CrashNE(h)

	tok := freshToken(sys.cfg.GID, p.ringID, h, 1, mq.Batch{{Op: mq.OpMemberJoin, Member: ids.MemberInfo{GUID: 1, AP: p.id}}}, token.FromLocal, ring.ID{})
	tok.Route = p.Roster()
	tok.Contributors = []ids.NodeID{p.id}
	p.passToken(tok)
	sent := *tok
	sent.Ops, sent.Route, sent.Contributors = slices.Clone(tok.Ops), slices.Clone(tok.Route), slices.Clone(tok.Contributors)
	sys.Run()

	if p.Repairs() != 1 {
		t.Fatalf("%d repairs at the predecessor, want the one give-up", p.Repairs())
	}
	if !reflect.DeepEqual(*tok, sent) {
		t.Fatalf("giving up changed the token in flight:\n now %+v\nsent %+v", *tok, sent)
	}
}

// TestTokenWaitsItsTurnAtLink: on a top ring spread over three
// processes, a node holds the pass of one remote holder's round to a
// crashed successor when the same holder's next round comes through.
// That token waits for the pass instead of cancelling its resend. When
// the pass is given up, it routes around the excluded successor in a
// copy, so it does not time out on it again, and both rounds go on to
// their holder.
func TestTokenWaitsItsTurnAtLink(t *testing.T) {
	p := newProcs(quietConfig(2, 3), 3)
	top := p.sys[0].hier.Level(0)[0].Nodes()
	n := p.sys[p.owners[top[0]]].Node(top[0])
	dead, holder := n.nextLive(n.id), n.prevLive(n.id)
	if p.owners[holder] == p.owners[n.id] {
		t.Fatalf("holder %s shares a process with %s", holder, n.id)
	}
	toDead, toHolder := 0, map[uint64]bool{}
	p.rt.Net().SetTrace(func(m runtime.Message, _ string) {
		if m.Kind == runtime.KindToken && m.From == n.id {
			switch m.To {
			case dead:
				toDead++
			case holder:
				toHolder[m.Body.(wire.TokenMsg).Tok.Round] = true
			}
		}
	})
	p.sys[0].CrashNE(dead)
	var waited *token.Token
	for round := uint64(101); round <= 102; round++ {
		tok := freshToken(n.sys.cfg.GID, n.ringID, holder, round, nil, token.FromLocal, ring.ID{})
		tok.Route = []ids.NodeID{holder, n.id, dead}
		n.passToken(tok)
		waited = tok
	}
	if len(n.passWait) != 1 {
		t.Fatalf("%d tokens wait behind the pass, want the second round's", len(n.passWait))
	}
	p.rt.Run()

	if want := 1 + n.sys.cfg.Retransmit.MaxRetries; toDead != want {
		t.Errorf("tokens sent to the dead successor %d times, want %d: the first pass's resends alone", toDead, want)
	}
	if !toHolder[101] || !toHolder[102] || n.Repairs() != 1 {
		t.Errorf("rounds passed on to the holder %v, %d repairs; want 101 and 102, and one", toHolder, n.Repairs())
	}
	if !slices.Contains(waited.Route, dead) {
		t.Error("the give-up rerouted the waiting token in place, not in a copy")
	}
	if n.pass.live || len(n.passWait) != 0 {
		t.Error("a pass or a waiting token is left after the run drained")
	}
}

// TestCrashedCarrierDropsWaitingTokens: a carrier that crashes with a
// pass in flight loses the tokens waiting behind it along with the
// pass, as a killed process would.
func TestCrashedCarrierDropsWaitingTokens(t *testing.T) {
	p := newProcs(quietConfig(2, 3), 3)
	n := &p.sys[0].top[0]
	holder := n.prevLive(n.id)
	for round := uint64(101); round <= 102; round++ {
		tok := freshToken(n.sys.cfg.GID, n.ringID, holder, round, nil, token.FromLocal, ring.ID{})
		tok.Route = []ids.NodeID{holder, n.id, n.nextLive(n.id)}
		n.passToken(tok)
	}
	n.sys.CrashNE(n.id)
	p.rt.Run()
	if n.pass.live || len(n.passWait) != 0 {
		t.Fatalf("a crashed carrier keeps its pass or %d waiting tokens", len(n.passWait))
	}
}

// TestResendOwnsItsTimers pins timer ownership the way api_lock_test.go
// pins the API: resend.go is the only non-test file of this package
// that may cancel a timer or name a retransmission callback. A leaked
// pass timer then fails here instead of in a benchmark sizing session.
func TestResendOwnsItsTimers(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	for _, f := range files {
		if f == "resend.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, banned := range []string{"clock.Cancel(", "passTimeoutCB", "notifyTimeoutCB"} {
				if strings.Contains(line, banned) {
					t.Errorf("%s:%d: %s outside resend.go: retransmission timers are armed and cancelled by resend's methods only", f, i+1, banned)
				}
			}
		}
	}
}
