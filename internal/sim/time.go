// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances an integer virtual clock (picosecond resolution) by
// executing events from a priority queue ordered by (time, insertion
// sequence). Simulated activities may be expressed either as plain event
// callbacks or as processes: ordinary Go functions running on their own
// coroutine that block on kernel primitives (Sleep, Wait, Use). The kernel
// guarantees that at most one process runs at any instant, so simulations
// are fully deterministic and race-free regardless of host parallelism.
package sim

import "fmt"

// Time is an absolute instant of virtual time, in picoseconds since the
// start of the simulation. Picosecond resolution lets hardware cost models
// such as Myrinet's 12.5 ns/byte link be represented exactly as integers.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds returns d as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an automatically chosen unit.
func (d Duration) String() string {
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as a duration since time zero.
func (t Time) String() string { return Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Ns builds a Duration from an integer nanosecond count.
func Ns(n int64) Duration { return Duration(n) * Nanosecond }

// Us builds a Duration from an integer microsecond count.
func Us(n int64) Duration { return Duration(n) * Microsecond }

// NsF builds a Duration from a floating-point nanosecond count, rounding
// to the nearest picosecond. Intended for configuration-time conversion
// only; hot paths should precompute integer durations.
func NsF(n float64) Duration { return Duration(n*1000 + 0.5) }

// MaxTime is the largest representable instant.
const MaxTime Time = 1<<63 - 1
