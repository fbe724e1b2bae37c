package myrinet

import "testing"

// TestVerifyCatchesEachHashedField seals a frame, then changes one
// hashed input at a time — a payload byte and each header field, in its
// low bits and in its high bits — and requires Verify to fail each
// time, while the untouched frame still verifies.
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
	mutations := []struct {
		name   string
		mutate func(*Packet)
	}{
		{"payload byte", func(p *Packet) { p.Payload[7] ^= 1 }},
		{"payload length", func(p *Packet) { p.Payload = p.Payload[:len(p.Payload)-1] }},
		{"Src", func(p *Packet) { p.Src++ }},
		{"Src high bits", func(p *Packet) { p.Src += 1 << 8 }},
		{"Dst", func(p *Packet) { p.Dst++ }},
		{"Dst high bits", func(p *Packet) { p.Dst += 1 << 8 }},
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
}
