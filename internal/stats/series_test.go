package stats

import (
	"testing"

	"fm/internal/sim"
)

func TestSeriesWindowMembership(t *testing.T) {
	s := NewSeries(10 * sim.Microsecond)
	// Window bounds are half-open: [0,10us) is window 0, t=10us opens
	// window 1.
	s.Arrival(0)
	s.Arrival(sim.Time(10*sim.Microsecond) - 1)
	s.Arrival(sim.Time(10 * sim.Microsecond))
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Window(0).Offered != 2 || s.Window(1).Offered != 1 {
		t.Errorf("offered = %d,%d, want 2,1", s.Window(0).Offered, s.Window(1).Offered)
	}
	if s.Start(1) != sim.Time(10*sim.Microsecond) {
		t.Errorf("start(1) = %v", s.Start(1))
	}
}

func TestSeriesGrowsWithEmptyWindows(t *testing.T) {
	s := NewSeries(sim.Microsecond)
	s.Delivery(sim.Time(5*sim.Microsecond)+1, 3*sim.Microsecond, 128)
	if s.Len() != 6 {
		t.Fatalf("len = %d, want 6 (five empty windows plus the hit)", s.Len())
	}
	for i := 0; i < 5; i++ {
		w := s.Window(i)
		if w.Offered != 0 || w.Delivered != 0 || w.Lat.Count() != 0 {
			t.Errorf("window %d not empty", i)
		}
		// Empty-window percentiles are zeros, not panics.
		if w.Lat.Percentile(0.99) != 0 {
			t.Errorf("window %d p99 = %v", i, w.Lat.Percentile(0.99))
		}
	}
	w := s.Window(5)
	if w.Delivered != 1 || w.Bytes != 128 || w.Lat.Count() != 1 {
		t.Errorf("delivery window wrong: %+v", w)
	}
}

func TestSeriesInFlightBacklog(t *testing.T) {
	s := NewSeries(sim.Microsecond)
	// Three arrivals in window 0, one delivery in window 1, two in
	// window 3: the backlog curve is 3, 2, 2, 0.
	for i := 0; i < 3; i++ {
		s.Arrival(sim.Time(i) * 100)
	}
	s.Delivery(sim.Time(sim.Microsecond), sim.Microsecond, 64)
	s.Delivery(sim.Time(3*sim.Microsecond), 3*sim.Microsecond, 64)
	s.Delivery(sim.Time(3*sim.Microsecond)+5, 3*sim.Microsecond, 64)
	want := []int64{3, 2, 2, 0}
	for i, w := range want {
		if got := s.InFlight(i); got != w {
			t.Errorf("InFlight(%d) = %d, want %d", i, got, w)
		}
	}
	// Past the end the backlog stays at its final value.
	if got := s.InFlight(10); got != 0 {
		t.Errorf("InFlight(10) = %d, want 0", got)
	}
}

func TestSeriesRetransmitsZeroNoop(t *testing.T) {
	s := NewSeries(sim.Microsecond)
	s.Retransmits(sim.Time(100*sim.Microsecond), 0)
	if s.Len() != 0 {
		t.Error("zero retransmits extended the series")
	}
	s.Retransmits(sim.Time(2*sim.Microsecond), 7)
	if s.Len() != 3 || s.Window(2).Retrans != 7 {
		t.Error("retransmit attribution wrong")
	}
}

func TestSeriesTotals(t *testing.T) {
	s := NewSeries(sim.Microsecond)
	s.Arrival(0)
	s.Arrival(sim.Time(4 * sim.Microsecond))
	s.Delivery(sim.Time(2*sim.Microsecond), sim.Microsecond, 100)
	s.Retransmits(sim.Time(3*sim.Microsecond), 2)
	off, del, bytes, retr := s.Totals()
	if off != 2 || del != 1 || bytes != 100 || retr != 2 {
		t.Errorf("totals = %d,%d,%d,%d", off, del, bytes, retr)
	}
}

func TestSeriesNegativeInstantPanics(t *testing.T) {
	s := NewSeries(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("expected negative-instant panic")
		}
	}()
	s.Arrival(-1)
}

func TestSeriesZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected zero-width panic")
		}
	}()
	NewSeries(0)
}
