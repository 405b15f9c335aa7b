package overlay

import (
	"strings"
	"testing"

	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

// TestHandleClaimsEveryOverlayMessage hands a running node and a stopped
// one a fresh record of every registered message type. Both must claim
// each overlay type, and nothing else, without panicking: a node's
// top-level handler offers every message to the overlay first, and one it
// disowns goes on to the layer above.
func TestHandleClaimsEveryOverlayMessage(t *testing.T) {
	net := transporttest.NewNet()
	running := New(net.NewEnv(testRef(0).Addr, 1), DefaultConfig(), testRef(0).Name)
	running.considerLeaf(testRef(1))
	stopped := New(net.NewEnv(testRef(2).Addr, 2), DefaultConfig(), testRef(2).Name)
	stopped.Stop()
	for _, tag := range transport.RegisteredMessages() {
		want := strings.HasPrefix(tag, "overlay.")
		for _, nd := range []*Node{running, stopped} {
			msg, _ := transport.NewMessage(tag)
			if got := nd.Handle(testRef(1).Addr, msg); got != want {
				t.Errorf("%s (stopped %v) claims a fresh %s: %v, want %v", nd.self.Name, nd.stopped, tag, got, want)
			}
		}
	}
}

// TestUnaskedJoinReplyIsDropped: a node acts on the first reply to its
// own join lookup only. An integrated node handed a join reply announces
// nothing - no level-0 insert, no ring search - and a joining node
// announces itself once, however many replies its lookup draws.
func TestUnaskedJoinReplyIsDropped(t *testing.T) {
	net := transporttest.NewNet()
	announced := func() (inserts, searches int) {
		for _, s := range net.Sends() {
			switch s.Msg.(type) {
			case *msgLevel0Insert:
				inserts++
			case *msgRingSearch:
				searches++
			}
		}
		return inserts, searches
	}
	reply := func(nd *Node) {
		nd.Handle(testRef(1).Addr, &msgJoinReply{Pred: testRef(1), LeafR: []NodeRef{testRef(2)}})
	}

	integrated := New(net.NewEnv(testRef(0).Addr, 1), DefaultConfig(), testRef(0).Name)
	integrated.considerLeaf(testRef(1))
	reply(integrated)
	if ins, rs := announced(); ins != 0 || rs != 0 || integrated.searches != 0 {
		t.Fatalf("unasked reply: %d level-0 inserts, %d ring searches sent, searches open %#x; want none",
			ins, rs, integrated.searches)
	}

	joiner := New(net.NewEnv(testRef(3).Addr, 3), DefaultConfig(), testRef(3).Name)
	joiner.Join(testRef(1))
	reply(joiner)
	ins, rs := announced()
	if ins == 0 || rs == 0 {
		t.Fatalf("reply to a join lookup: %d level-0 inserts, %d ring searches; want some of each", ins, rs)
	}
	reply(joiner)
	if again, rsAgain := announced(); again != ins || rsAgain != rs {
		t.Fatalf("second reply to one lookup announced again: %d -> %d inserts, %d -> %d ring searches", ins, again, rs, rsAgain)
	}
}
