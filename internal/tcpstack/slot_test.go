package tcpstack

import (
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// connOn returns the host's connection from the client port, or nil.
func connOn(h *Host, port uint16) *Conn {
	for _, c := range h.conns {
		if c.key.peerPort == port {
			return c
		}
	}
	return nil
}

// TestConnSlotReuse: the host's own Conn serves one connection at a
// time. A connection that opens while it is busy gets a Conn of its
// own; once the slot's connection is gone the next one takes the slot,
// and a late segment of the old connection is answered with a RST
// without touching the connection that now lives in the same storage.
func TestConnSlotReuse(t *testing.T) {
	app := &echoApp{response: []byte("resp")}
	n, h, c := setup(t, Config{IW: IWPolicy{Segments: 10}}, app)

	issA := handshake(t, n, c, 64, 65535, []byte("a"))
	if a := connOn(h, 40000); a != &h.slot {
		t.Fatalf("first connection in %p, want the host's slot %p", a, &h.slot)
	}

	c.port, c.rxs = 40001, nil
	handshake(t, n, c, 64, 65535, []byte("b"))
	b := connOn(h, 40001)
	if b == nil || b == &h.slot {
		t.Fatalf("connection opened while the slot is busy got %p, want a Conn of its own", b)
	}

	c.port, c.rxs = 40000, nil
	c.sendSeg(c.isn+2, issA+1+4, wire.FlagRST|wire.FlagACK, 0, nil)
	n.Run(n.Now() + 50*netsim.Millisecond)
	if connOn(h, 40000) != nil || !h.slot.Closed() {
		t.Fatal("reset connection still open")
	}

	c.port, c.rxs = 40002, nil
	handshake(t, n, c, 64, 65535, []byte("c"))
	n.Run(n.Now() + 50*netsim.Millisecond)
	if got := connOn(h, 40002); got != &h.slot {
		t.Fatalf("connection after the slot freed got %p, want the slot %p", got, &h.slot)
	}
	if len(c.dataSegs()) != 1 || string(c.dataSegs()[0].data) != "resp" {
		t.Fatalf("connection in the reused slot got %d data segments, want the one response", len(c.dataSegs()))
	}
	slotBefore, bBefore := h.slot.rcvNxt, b.rcvNxt

	// A late data segment of the reset connection.
	c.port, c.rxs = 40000, nil
	c.sendSeg(c.isn+2, issA+1+4, wire.FlagACK, 65535, []byte("late"))
	n.Run(n.Now() + 50*netsim.Millisecond)
	if len(c.rxs) != 1 || !c.rxs[0].hdr.HasFlag(wire.FlagRST) || c.rxs[0].hdr.DstPort != 40000 {
		t.Fatalf("late segment of a closed connection got %d replies, want one RST to its port", len(c.rxs))
	}
	if h.slot.key.peerPort != 40002 || h.slot.state != stateEstablished || h.slot.rcvNxt != slotBefore {
		t.Fatalf("late segment reached the slot's new connection: port %d, state %s", h.slot.key.peerPort, h.slot.state)
	}
	if b.rcvNxt != bBefore || h.ConnCount() != 2 {
		t.Fatalf("late segment disturbed the other connections: %d open", h.ConnCount())
	}
	if app.sessions != 3 {
		t.Fatalf("%d sessions, want 3", app.sessions)
	}
}

// abortSession queues a response and aborts before it is flushed, so
// the zero-delay flush is armed when the connection is destroyed.
type abortSession struct{ conn *Conn }

func (s abortSession) OnData([]byte) {
	s.conn.Write([]byte("never sent"))
	s.conn.Abort()
}

func (abortSession) OnPeerClose() {}

// TestDestroyDisarmsEveryTimer: however a connection ends, it leaves
// none of its timers armed, so its storage can serve the next one. The
// timers are read from the idle callback, which runs inside the
// teardown, before an armed zero-delay flush could fire and hide.
func TestDestroyDisarmsEveryTimer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		app   App
		drive func(n *netsim.Network, c *testClient)
	}{
		{"abort", Config{}, appFunc(func(c *Conn) Session { return abortSession{c} }),
			func(n *netsim.Network, c *testClient) {
				handshake(t, n, c, 64, 65535, []byte("req"))
			}},
		{"idle-timeout", Config{IdleTime: 2 * netsim.Second, MaxRetx: 100}, &echoApp{},
			func(n *netsim.Network, c *testClient) {
				c.sendSYN(64, 65535)
				n.Run(n.Now() + 3*netsim.Second)
			}},
		{"close", Config{}, &echoApp{response: []byte("resp"), close: true},
			func(n *netsim.Network, c *testClient) {
				iss := handshake(t, n, c, 64, 65535, []byte("req"))
				n.Run(n.Now() + 100*netsim.Millisecond)
				c.sendSeg(c.isn+1+3, iss+1+4+1, wire.FlagACK|wire.FlagFIN, 65535, nil)
				n.Run(n.Now() + 100*netsim.Millisecond)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, h, c := setup(t, tc.cfg, tc.app)
			conn := &h.slot
			var armed []string
			closed := false
			h.SetIdleFunc(func(*Host) {
				closed = conn.Closed()
				for name, timer := range map[string]*netsim.Timer{"retx": &conn.retx, "idle": &conn.idle, "flush": &conn.flush} {
					if timer.Pending() {
						armed = append(armed, name)
					}
				}
			})
			tc.drive(n, c)
			if !closed {
				t.Fatalf("connection still %s", conn.State())
			}
			if len(armed) > 0 {
				t.Errorf("timers still armed as the connection closed: %v", armed)
			}
		})
	}
}
