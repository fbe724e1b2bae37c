package myrinet

import "testing"

// TestVerifyCatchesEachHashedField seals a frame, then changes one
// hashed input at a time — a payload byte, the payload's order and
// length, and each header field, in its low bits and in its high bits —
// and requires Verify to fail each time, while the untouched frame and
// a frame with an empty payload still verify. Swapping Src and Dst
// without re-sealing must fail too: flipBounce swaps them and re-seals,
// so a check symmetric in the two would pass a frame whose swap was
// never sealed. Seal and Verify allocate nothing.
func TestVerifyCatchesEachHashedField(t *testing.T) {
	seal := func() *Packet {
		p := &Packet{Src: 3, Dst: 5, Type: Data, Handler: 2, Seq: 41,
			Payload: []byte("a frame that must not change on the wire"), HeaderBytes: 16}
		p.Seal()
		return p
	}
	if !seal().Verify() {
		t.Fatal("untouched frame fails Verify")
	}
	empty := &Packet{Src: 1, Dst: 2, Type: Ack, Seq: 7}
	empty.Seal()
	if !empty.Verify() {
		t.Fatal("frame with an empty payload fails Verify")
	}
	mutations := []struct {
		name   string
		mutate func(*Packet)
	}{
		{"payload byte", func(p *Packet) { p.Payload[7] ^= 1 }},
		{"payload bytes swapped", func(p *Packet) { p.Payload[0], p.Payload[2] = p.Payload[2], p.Payload[0] }},
		{"payload length", func(p *Packet) { p.Payload = p.Payload[:len(p.Payload)-1] }},
		{"Src", func(p *Packet) { p.Src++ }},
		{"Src high bits", func(p *Packet) { p.Src += 1 << 8 }},
		{"Dst", func(p *Packet) { p.Dst++ }},
		{"Dst high bits", func(p *Packet) { p.Dst += 1 << 8 }},
		{"Src and Dst swapped", func(p *Packet) { p.Src, p.Dst = p.Dst, p.Src }},
		{"Type", func(p *Packet) { p.Type = Retransmit }},
		{"Handler", func(p *Packet) { p.Handler++ }},
		{"Handler high bits", func(p *Packet) { p.Handler += 1 << 8 }},
		{"Seq", func(p *Packet) { p.Seq++ }},
		{"Seq high bits", func(p *Packet) { p.Seq += 1 << 40 }},
	}
	for _, m := range mutations {
		p := seal()
		m.mutate(p)
		if p.Verify() {
			t.Errorf("changing %s leaves Verify true", m.name)
		}
	}
	p := seal()
	if n := testing.AllocsPerRun(100, func() {
		p.Seal()
		if !p.Verify() {
			t.Fatal("resealed frame fails Verify")
		}
	}); n != 0 {
		t.Errorf("Seal+Verify allocates %v times per frame, want 0", n)
	}
}
