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
