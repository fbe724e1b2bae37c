// Package stream builds a reliable, in-order byte stream on top of FM
// frames — the TCP-style legacy-protocol layer the paper's future work
// targets (Section 7), and the consumer of the observation that FM's
// 128-byte frame "is close to the best size for supporting TCP/IP and
// UDP/IP traffic" (Section 5).
//
// FM delivers reliably but NOT in order ("the well-known drawback of all
// of these retransmission schemes is that delivery order is not
// preserved", Section 4.5): a rejected-then-retransmitted frame arrives
// after its successors. The stream layer therefore segments writes into
// sequence-numbered frames and reassembles them at the receiver,
// buffering out-of-order arrivals. The out-of-order window is bounded by
// the FM sender window, so reassembly memory is bounded too.
//
// A Mux owns one FM handler id and demultiplexes any number of
// bidirectional streams, keyed by (peer, stream id). Conn implements
// io.Reader, io.Writer and io.Closer.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"fm/internal/core"
)

// headerBytes is the stream header inside each FM frame payload:
// stream id (2), flags (1), reserved (1), segment sequence (4).
const headerBytes = 8

const flagFIN = 1

// Mux demultiplexes stream frames arriving at one FM handler id.
type Mux struct {
	ep      *core.Endpoint
	handler int
	conns   map[connKey]*Conn
}

type connKey struct {
	peer int
	id   uint16
}

// NewMux attaches a stream multiplexer to ep, owning handler id h.
func NewMux(ep *core.Endpoint, h int) *Mux {
	m := &Mux{ep: ep, handler: h, conns: make(map[connKey]*Conn)}
	ep.RegisterHandler(h, m.onFrame)
	return m
}

// Open returns the bidirectional stream with the given id toward peer,
// creating it if needed. Both sides call Open with the same id; there is
// no connection handshake (FM is connectionless), matching the layer's
// datagram substrate.
func (m *Mux) Open(peer int, id uint16) *Conn {
	key := connKey{peer, id}
	if c, ok := m.conns[key]; ok {
		return c
	}
	c := &Conn{
		mux:    m,
		peer:   peer,
		id:     id,
		maxSeg: m.ep.Config().FramePayload - headerBytes,
		ooo:    make(map[uint32][]byte),
	}
	if c.maxSeg <= 0 {
		panic(fmt.Sprintf("stream: frame payload %d too small for the %d-byte stream header",
			m.ep.Config().FramePayload, headerBytes))
	}
	m.conns[key] = c
	return c
}

// onFrame is the FM handler: route the segment to its connection.
func (m *Mux) onFrame(src int, payload []byte) {
	if len(payload) < headerBytes {
		panic("stream: runt frame")
	}
	id := binary.LittleEndian.Uint16(payload[0:])
	flags := payload[2]
	seq := binary.LittleEndian.Uint32(payload[4:])
	c := m.Open(src, id)
	// The FM buffer does not persist beyond the handler: copy the body.
	body := append([]byte(nil), payload[headerBytes:]...)
	c.accept(seq, flags, body)
}

// Conn is one reliable, ordered byte stream. Methods must be called from
// the owning node's application process.
type Conn struct {
	mux    *Mux
	peer   int
	id     uint16
	maxSeg int

	// Send side.
	nextSend uint32

	// Receive side: contiguous bytes ready for Read, plus the
	// out-of-order reassembly buffer.
	readBuf  []byte
	nextRecv uint32
	ooo      map[uint32][]byte
	finSeq   uint32
	finSeen  bool
	eof      bool
}

var _ io.ReadWriteCloser = (*Conn)(nil)

// accept integrates one segment (handler context).
func (c *Conn) accept(seq uint32, flags byte, body []byte) {
	if flags&flagFIN != 0 {
		c.finSeen = true
		c.finSeq = seq
	}
	if seq < c.nextRecv {
		panic(fmt.Sprintf("stream: duplicate segment %d (next %d)", seq, c.nextRecv))
	}
	c.ooo[seq] = body
	// Pull every now-contiguous segment into the read buffer.
	for {
		b, ok := c.ooo[c.nextRecv]
		if !ok {
			break
		}
		delete(c.ooo, c.nextRecv)
		c.readBuf = append(c.readBuf, b...)
		c.nextRecv++
	}
	if c.finSeen && c.nextRecv > c.finSeq {
		c.eof = true
	}
}

// Write segments p into FM frames and sends them all. It blocks the host
// process until every segment has been handed to the layer (FM's window
// provides the backpressure). It never returns a short count without an
// error.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		seg := len(p)
		if seg > c.maxSeg {
			seg = c.maxSeg
		}
		if err := c.send(p[:seg], 0); err != nil {
			return total, err
		}
		p = p[seg:]
		total += seg
	}
	return total, nil
}

// send emits one segment with the stream header.
func (c *Conn) send(body []byte, flags byte) error {
	frame := make([]byte, headerBytes+len(body))
	binary.LittleEndian.PutUint16(frame[0:], c.id)
	frame[2] = flags
	binary.LittleEndian.PutUint32(frame[4:], c.nextSend)
	copy(frame[headerBytes:], body)
	c.nextSend++
	return c.mux.ep.Send(c.peer, c.mux.handler, frame)
}

// Read returns buffered in-order bytes, blocking (and pumping the FM
// layer) until at least one byte or EOF is available.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readBuf) == 0 {
		if c.eof {
			return 0, io.EOF
		}
		c.mux.ep.WaitIncoming()
		c.mux.ep.Extract()
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Close sends FIN. The peer's Read returns io.EOF once every byte before
// the FIN has been consumed.
func (c *Conn) Close() error {
	return c.send(nil, flagFIN)
}

// Pending returns how many out-of-order segments await reassembly
// (non-zero only after return-to-sender reordering).
func (c *Conn) Pending() int { return len(c.ooo) }
