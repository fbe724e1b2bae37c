package host

import (
	"testing"

	"fm/internal/cost"
	"fm/internal/sbus"
	"fm/internal/sim"
)

func newCPU() (*sim.Kernel, *CPU) {
	k := sim.NewKernel()
	p := cost.Default()
	b := sbus.New(k, p, "bus")
	return k, New(k, p, b, 0)
}

func TestAdvanceChargesTime(t *testing.T) {
	k, c := newCPU()
	c.Start(func() {
		c.Advance(5 * sim.Microsecond)
		if c.Now() != sim.Time(5*sim.Microsecond) {
			t.Errorf("now = %v", c.Now())
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyAndMemReadCosts(t *testing.T) {
	k, c := newCPU()
	c.Start(func() {
		c.Memcpy(1000)
		afterCopy := c.Now()
		if afterCopy != sim.Time(c.P.MemcpyTime(1000)) {
			t.Errorf("memcpy took %v", afterCopy)
		}
		c.MemRead(800)
		read := c.Now().Sub(afterCopy)
		if read != 800*c.P.HostMemReadByte {
			t.Errorf("memread took %v", read)
		}
		c.Memcpy(0)
		c.MemRead(0)
		if c.Now() != afterCopy.Add(read) {
			t.Error("zero-byte ops consumed time")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestBusOpsGoThroughSBus(t *testing.T) {
	k, c := newCPU()
	c.Start(func() {
		c.PIOWrite(64)
		c.StatusRead()
		c.ControlWrite()
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	s := c.Bus.Stats()
	if s.PIOBytes != 64 || s.StatusReads != 1 || s.CtrlWrites != 1 {
		t.Errorf("bus stats = %+v", s)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	k, c := newCPU()
	c.Start(func() {
		defer func() {
			if recover() == nil {
				t.Error("second Start did not panic")
			}
		}()
		c.Start(func() {})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestProcOutsideAppPanics(t *testing.T) {
	_, c := newCPU()
	defer func() {
		if recover() == nil {
			t.Error("Proc outside an application did not panic")
		}
	}()
	c.Proc()
}

func TestSequentialAppsAllowed(t *testing.T) {
	k, c := newCPU()
	ran := 0
	c.Start(func() { ran++ })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The first app finished; a new one may start.
	c.Start(func() { ran++ })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("ran = %d", ran)
	}
}
