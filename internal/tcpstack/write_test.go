package tcpstack

import (
	"bytes"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// memoApp answers every connection with the same memo slice, then a
// tail, the way an app server replays a response it rendered once.
type memoApp struct {
	memo, tail []byte
}

func (a *memoApp) NewSession(c *Conn) Session { return &memoSession{app: a, conn: c} }

type memoSession struct {
	app  *memoApp
	conn *Conn
}

func (s *memoSession) OnData([]byte) {
	s.conn.Write(s.app.memo) // the queue is empty: adopted, not copied
	s.conn.Write(s.app.tail) // must land in an array of the connection's own
}

func (s *memoSession) OnPeerClose() {}

// TestWriteAdoptsWithoutAliasing pins Conn.Write's ownership contract.
// The first Write of a connection adopts the caller's slice; nothing the
// connection does afterwards — a second Write, a retransmission, the
// ACKs that advance the queue, a second connection sharing the slice —
// may change one byte of the caller's array, including the spare
// capacity behind the slice, which is what the clamp protects.
func TestWriteAdoptsWithoutAliasing(t *testing.T) {
	backing := make([]byte, 1000)
	for i := range backing {
		backing[i] = byte(i*7 + 1)
	}
	pristine := append([]byte(nil), backing...)
	app := &memoApp{memo: backing[:300], tail: bytes.Repeat([]byte{0xEE}, 200)}
	want := append(append([]byte(nil), app.memo...), app.tail...)

	for conn := 0; conn < 2; conn++ {
		n, host, c := setup(t, Config{IW: IWPolicy{Kind: IWSegments, Segments: 2}}, app)
		c.port += uint16(conn)
		iss := handshake(t, n, c, 64, 65535, []byte("x"))
		n.Run(n.Now() + 1500*netsim.Millisecond) // past the RTO: a retransmission
		if got := host.Stats().Retransmits; got != 1 {
			t.Fatalf("connection %d: %d retransmissions, want 1", conn, got)
		}
		// Acknowledge segment by segment until the whole stream is out.
		got := make([]byte, len(want))
		for acked := 0; acked < len(want); {
			for _, seg := range c.dataSegs() {
				off := int(seg.hdr.Seq - (iss + 1))
				copy(got[off:], seg.data)
				acked = max(acked, off+len(seg.data))
			}
			c.sendSeg(c.isn+2, iss+1+uint32(acked), wire.FlagACK, 65535, nil)
			n.Run(n.Now() + 50*netsim.Millisecond)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("connection %d: stream differs from memo+tail", conn)
		}
		if !bytes.Equal(backing, pristine) {
			t.Fatalf("connection %d changed the caller's array", conn)
		}
	}
}

// TestWriteAdoptsEmptyQueue: a connection with nothing queued sends
// straight from the caller's slice.
func TestWriteAdoptsEmptyQueue(t *testing.T) {
	app := &memoApp{memo: make([]byte, 300, 1000)}
	n, host, c := setup(t, Config{IW: IWPolicy{Kind: IWSegments, Segments: 2}}, app)
	handshake(t, n, c, 64, 65535, []byte("x"))
	for _, sc := range host.conns {
		if &sc.sndQueue[0] != &app.memo[0] || cap(sc.sndQueue) != len(app.memo) {
			t.Fatalf("queue is not the caller's slice clamped to its length (cap %d)", cap(sc.sndQueue))
		}
	}
	if len(host.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(host.conns))
	}
}
