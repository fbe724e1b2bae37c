package stats

import (
	"fmt"

	"fm/internal/sim"
)

// Series is the streaming/windowed extension of the toolkit: it cuts
// virtual time into fixed-width windows and accumulates, per window, the
// open-loop load measurements a soak run reports — offered arrivals,
// completed deliveries with their payload bytes, retransmissions, and
// the full sojourn-latency distribution of the deliveries. Everything
// it stores is an integer count or an integer-bucketed histogram, so a
// Series built from a deterministic simulation is byte-reproducible.
//
// Window membership is half-open: an event at instant t belongs to
// window floor(t / width), so window w covers [w*width, (w+1)*width).
// The series grows on demand — recording past the current end extends
// it with empty windows, which stay in the timeline (a stall shows as a
// zero-throughput window, not a gap).
type Series struct {
	width sim.Duration
	wins  []Window
}

// Window is one fixed-width virtual-time window's accumulators. The
// in-flight count is not stored: it is the running difference of
// offered and delivered, derived by Series.InFlight.
type Window struct {
	// Offered counts the arrivals the open-loop schedule placed in this
	// window (work handed to the system, whether or not it was sent yet).
	Offered uint64
	// Delivered counts the messages whose delivery completed in this
	// window, and Bytes their payload bytes.
	Delivered uint64
	Bytes     uint64
	// Retrans counts the retransmissions attributed to this window.
	Retrans uint64
	// Lat is the sojourn-latency distribution (arrival to delivery) of
	// this window's deliveries. Empty windows report zero percentiles
	// (see Histogram.Percentile's empty contract).
	Lat Histogram
}

// NewSeries returns an empty series with the given window width.
func NewSeries(width sim.Duration) *Series {
	if width <= 0 {
		panic(fmt.Sprintf("stats: series window width %v must be positive", width))
	}
	return &Series{width: width}
}

// Width returns the window width.
func (s *Series) Width() sim.Duration { return s.width }

// Len returns the number of windows the series currently spans.
func (s *Series) Len() int { return len(s.wins) }

// Window returns window i for reading. It panics outside [0, Len).
func (s *Series) Window(i int) *Window { return &s.wins[i] }

// Start returns the opening instant of window i.
func (s *Series) Start(i int) sim.Time { return sim.Time(s.width) * sim.Time(i) }

// at maps an instant to its window, extending the series as needed.
// Negative instants are a programming error.
func (s *Series) at(t sim.Time) *Window {
	if t < 0 {
		panic(fmt.Sprintf("stats: series sample at negative instant %v", t))
	}
	i := int(t / sim.Time(s.width))
	for len(s.wins) <= i {
		s.wins = append(s.wins, Window{})
	}
	return &s.wins[i]
}

// Arrival records one offered arrival at instant t.
func (s *Series) Arrival(t sim.Time) { s.at(t).Offered++ }

// Delivery records one completed delivery at instant t with the given
// sojourn latency (arrival to delivery) and payload size.
func (s *Series) Delivery(t sim.Time, sojourn sim.Duration, bytes int) {
	w := s.at(t)
	w.Delivered++
	w.Bytes += uint64(bytes)
	w.Lat.Record(sojourn)
}

// Retransmits attributes n retransmissions to instant t's window.
func (s *Series) Retransmits(t sim.Time, n uint64) {
	if n == 0 {
		return
	}
	s.at(t).Retrans += n
}

// InFlight returns the number of messages in the system at the close of
// window i: cumulative arrivals minus cumulative deliveries through the
// end of that window. Under open-loop overload this is the backlog
// curve — it grows for as long as offered load exceeds service rate.
func (s *Series) InFlight(i int) int64 {
	var v int64
	for j := 0; j <= i && j < len(s.wins); j++ {
		v += int64(s.wins[j].Offered) - int64(s.wins[j].Delivered)
	}
	return v
}

// Extend grows the series to at least n windows, appending empty ones,
// so a fixed observation span includes its idle tail as explicit
// zero-throughput windows.
func (s *Series) Extend(n int) {
	for len(s.wins) < n {
		s.wins = append(s.wins, Window{})
	}
}

// Totals returns the series-wide offered/delivered/bytes/retransmit
// sums — the closed-loop summary a windowed run still wants to print.
func (s *Series) Totals() (offered, delivered, bytes, retrans uint64) {
	for i := range s.wins {
		w := &s.wins[i]
		offered += w.Offered
		delivered += w.Delivered
		bytes += w.Bytes
		retrans += w.Retrans
	}
	return offered, delivered, bytes, retrans
}
