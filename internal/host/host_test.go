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
	return k, NewAt(new(CPU), k, p, b, 0)
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
		c.MemRead(800) // a charge: the time passes at the pay
		if c.Now() != afterCopy {
			t.Errorf("memread moved the clock before the pay: %v", c.Now())
		}
		c.Pay()
		read := c.Now().Sub(afterCopy)
		if read != 800*c.P.HostMemReadByte {
			t.Errorf("memread took %v", read)
		}
		c.Memcpy(0)
		c.MemRead(0)
		c.Pay()
		if c.Now() != afterCopy.Add(read) {
			t.Error("zero-byte ops consumed time")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestChargesPayAtTheBus: charges leave the clock alone until a call
// that touches the SBus pays them, and each charge is still its own
// wake, so the event count matches a sleep per charge.
func TestChargesPayAtTheBus(t *testing.T) {
	k, c := newCPU()
	c.Start(func() {
		c.Charge(300 * sim.Nanosecond)
		c.Charge(0)
		c.Charge(200 * sim.Nanosecond)
		if c.Now() != 0 {
			t.Errorf("charges moved the clock to %v before a pay", c.Now())
		}
		c.ControlWrite()
		if want := sim.Time(500*sim.Nanosecond + c.P.SBusControlWrite); c.Now() != want {
			t.Errorf("after the control write now = %v, want %v", c.Now(), want)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The spawn wake, three charge wakes and the write's own wake.
	if n := k.EventsRun(); n != 5 {
		t.Errorf("%d events, want 5", n)
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
