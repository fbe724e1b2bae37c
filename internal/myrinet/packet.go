// Package myrinet models the Myrinet network: byte-wide parallel links at
// 12.5 ns/byte (76.3 MiB/s), cut-through crossbar switches with 550 ns of
// per-hop latency, and source-routed packet delivery (paper Section 2 and
// Appendix A).
package myrinet

import (
	"fmt"
	"hash/maphash"

	"fm/internal/sim"
)

// PacketType distinguishes the frame kinds the FM protocol and the
// Myrinet API comparator put on the wire.
type PacketType uint8

const (
	// Data carries application payload to a handler.
	Data PacketType = iota
	// Ack acknowledges accepted sequence numbers (possibly aggregated).
	Ack
	// Reject returns a packet to its sender under return-to-sender flow
	// control (paper Section 4.5).
	Reject
	// Retransmit is a Data packet being retried from the reject queue.
	Retransmit
	// APIMessage is a Myrinet-API message (ordered, checksummed).
	APIMessage
)

// String returns the packet type mnemonic.
func (t PacketType) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Reject:
		return "REJECT"
	case Retransmit:
		return "RETX"
	case APIMessage:
		return "API"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// SeqRange is an inclusive range of sequence numbers, used to aggregate
// multiple acknowledgements into a single packet (Section 4.5: "Multiple
// packets can be acknowledged with a single acknowledgement packet").
type SeqRange struct {
	Lo, Hi uint64
}

// Packet is one Myrinet frame. The simulation moves real payload bytes so
// higher layers can be verified end to end; the header fields are carried
// as struct members and charged on the wire via HeaderBytes.
type Packet struct {
	Src     int        // source node id
	Dst     int        // destination node id
	Type    PacketType // frame kind
	Handler int        // FM handler index (Data/Retransmit/Reject)
	Seq     uint64     // sender-assigned sequence number
	Acks    []SeqRange // piggybacked or standalone acknowledgements
	Payload []byte     // application bytes (owned by the packet)

	// HeaderBytes is the on-wire header size, set by the messaging layer
	// that built the frame. Reported message lengths refer to payload
	// only, "inclusive of the header overhead" (Section 4.1), i.e. the
	// header consumes wire time but is not counted as data.
	HeaderBytes int

	// Injected records when the packet first entered the network, for
	// latency accounting across retransmissions.
	Injected sim.Time

	// Bounced marks a frame the fabric itself turned around at a failed
	// component (dead link or switch, loss burst, down destination): the
	// fabric flips it into a Reject aimed back at its sender, and the
	// sender's endpoint restores OrigType and parks it for
	// retransmission. Receiver-side rejects (host overload) never set it.
	Bounced bool

	// OrigType is the frame kind before a fault bounce flipped the
	// packet into a Reject; meaningful only while Bounced is set.
	OrigType PacketType

	// Corrupt marks a frame that crossed a link during a corruption
	// burst. The delivering fabric detects it (the model's stand-in for
	// a link-level CRC check at the receiving interface) and bounces the
	// frame instead of delivering it.
	Corrupt bool

	// crc is a frame check sequence computed at injection and verified
	// at delivery; it catches buffer-aliasing bugs in the layers above
	// (a payload mutated while "on the wire" means a missing copy).
	crc uint64

	// xsw is sharded-run transit state: the switch index at which the
	// packet's head crossed a shard boundary. The owning shard resolves
	// a fresh route from that switch and continues the walk
	// (Fabric.ResumeCross); under faults the re-resolution is also what
	// reroutes a mid-flight packet around a component that died while it
	// was crossing.
	xsw int

	// pooled marks a packet currently parked in its fabric's free list;
	// it catches double-release and use-after-release ownership bugs.
	pooled bool
}

// reset clears a packet for reuse, retaining the payload and ack
// buffers' capacity so a recycled packet carries no allocation cost.
func (p *Packet) reset() {
	*p = Packet{
		Payload: p.Payload[:0],
		Acks:    p.Acks[:0],
	}
}

// SetPayload copies b into the packet's payload, reusing the packet's
// buffer capacity. Layers use it instead of assigning a caller-owned
// slice, so the payload buffer stays under the packet's ownership and
// can be recycled with it.
func (p *Packet) SetPayload(b []byte) {
	p.Payload = append(p.Payload[:0], b...)
}

// WireBytes returns the total bytes the frame occupies on a link.
func (p *Packet) WireBytes() int { return p.HeaderBytes + len(p.Payload) }

// frameSeed keys the frame check. Nothing compares check values across
// processes, so a per-process seed is enough.
var frameSeed = maphash.MakeSeed()

// checksum hashes the payload and folds the header fields that must
// stay immutable in flight into that hash. Each field is multiplied by
// its own odd constant, a bijection on 64 bits, so changing any single
// field at its full width always changes the sum; the constants differ
// by 2 mod 4, so swapping Src and Dst changes it too unless the two
// differ by a multiple of 2^63. One fmix64 avalanche then spreads the
// sum over every bit. The products are independent, so the fold costs a
// few cycles beyond the one hash call, and it allocates nothing.
func (p *Packet) checksum() uint64 {
	h := maphash.Bytes(frameSeed, p.Payload) +
		uint64(p.Src)*0x9e3779b97f4a7c15 +
		uint64(p.Dst)*0xc2b2ae3d27d4eb4f +
		uint64(p.Handler)*0x165667b19e3779f9 +
		p.Seq*0xd6e8feb86659fd93 +
		uint64(p.Type)*0x27d4eb2f165667c5
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Seal stamps the frame check sequence prior to injection.
func (p *Packet) Seal() { p.crc = p.checksum() }

// Verify reports whether the frame is intact.
func (p *Packet) Verify() bool { return p.crc == p.checksum() }

// String summarizes the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d len=%d", p.Type, p.Src, p.Dst, p.Seq, len(p.Payload))
}
