package tcpstack

import (
	"bytes"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// sliceSource is a Source over a caller's array that notes the longest
// prefix it was asked for.
type sliceSource struct {
	b       []byte
	highest int
}

func (s *sliceSource) Len() int { return len(s.b) }

func (s *sliceSource) Prefix(end int) []byte {
	s.highest = max(s.highest, end)
	return s.b[:end]
}

// memoApp answers every connection from the same source, then a tail,
// the way an app server replays a response it renders once.
type memoApp struct {
	memo *sliceSource
	tail []byte
}

func (a *memoApp) NewSession(c *Conn) Session { return &memoSession{app: a, conn: c} }

type memoSession struct {
	app  *memoApp
	conn *Conn
}

func (s *memoSession) OnData([]byte) {
	s.conn.Send(s.app.memo)
	if s.app.tail != nil {
		s.conn.Write(s.app.tail) // joins the queue in an array of the connection's own
	}
}

func (s *memoSession) OnPeerClose() {}

// TestWriteAdoptsWithoutAliasing pins the ownership contract of Send and
// Write. Nothing a connection does — a Write behind a queued Source, a
// retransmission, the ACKs that advance the queue, a second connection
// sending from the same Source — may change one byte of the caller's
// array, including the spare capacity behind the Source's slice, which a
// join must not append into.
func TestWriteAdoptsWithoutAliasing(t *testing.T) {
	backing := make([]byte, 1000)
	for i := range backing {
		backing[i] = byte(i*7 + 1)
	}
	pristine := append([]byte(nil), backing...)
	app := &memoApp{memo: &sliceSource{b: backing[:300]}, tail: bytes.Repeat([]byte{0xEE}, 200)}
	want := append(append([]byte(nil), app.memo.b...), app.tail...)

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
// straight from the caller's slice, through its own bytesSource, with the
// capacity clamped to the length.
func TestWriteAdoptsEmptyQueue(t *testing.T) {
	memo := make([]byte, 300, 1000)
	app := &memoApp{memo: &sliceSource{}, tail: memo}
	n, host, c := setup(t, Config{IW: IWPolicy{Kind: IWSegments, Segments: 2}}, app)
	handshake(t, n, c, 64, 65535, []byte("x"))
	if len(host.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(host.conns))
	}
	sc := host.conns[0]
	if sc.src != &sc.wbuf || &sc.wbuf[0] != &memo[0] || cap(sc.wbuf) != len(memo) {
		t.Fatalf("queue is not the caller's slice clamped to its length (cap %d)", cap(sc.wbuf))
	}
}

// TestSendReadsOnlyWhatItSends: a connection asks its Source for no
// more than the bytes it has put on the wire — the IW burst, then what
// each ACK releases, and a retransmission asks for nothing new.
func TestSendReadsOnlyWhatItSends(t *testing.T) {
	src := &sliceSource{b: make([]byte, 5000)}
	n, _, c := setup(t, Config{IW: IWPolicy{Kind: IWSegments, Segments: 4}}, &memoApp{memo: src})
	iss := handshake(t, n, c, 64, 65535, []byte("x"))
	sent := func() int {
		hi := 0
		for _, seg := range c.dataSegs() {
			hi = max(hi, int(seg.hdr.Seq-(iss+1))+len(seg.data))
		}
		return hi
	}
	if hi := sent(); hi != 4*64 || src.highest != hi {
		t.Fatalf("IW burst: %d bytes sent, source asked for %d, want both 256", hi, src.highest)
	}
	n.Run(n.Now() + 1500*netsim.Millisecond) // the RTO resends the first segment
	if src.highest != 4*64 {
		t.Fatalf("after a retransmission the source was asked for %d bytes, want still 256", src.highest)
	}
	// An ACK of two segments with a 3-segment window releases one more.
	c.sendSeg(c.isn+2, iss+1+128, wire.FlagACK, 3*64, nil)
	n.Run(n.Now() + 10*netsim.Millisecond)
	if hi := sent(); hi != 5*64 || src.highest != hi {
		t.Fatalf("after the ACK: %d bytes sent, source asked for %d, want both 320", hi, src.highest)
	}
}
