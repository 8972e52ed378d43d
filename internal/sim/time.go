// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is single-threaded from the simulation's point of view: events
// execute one at a time in (time, insertion) order, and processes (Proc) are
// coroutines that hand control back and forth with the event loop, so
// simulations are fully deterministic for a given seed and input,
// regardless of GOMAXPROCS.
//
// The package also provides the small set of synchronization and resource
// primitives the rest of the simulator is built from: Signal (one-shot
// broadcast), Gate (countdown latch), Semaphore (counted tokens with FIFO
// waiters), Line (a serialized transmission resource such as a NIC or bus),
// and a deterministic splitmix64 random number generator.
//
// The kernel is engineered for a zero-allocation steady state. Events wait
// in a monotone radix queue of 16-byte (time, slot) entries over a payload
// slab, and the hot scheduling paths avoid per-event closures: parked
// processes resume through the event's *Proc arm, and layers whose callback
// is a fixed method on a long-lived object implement Target and use
// ScheduleCall/AtCall (or Line.SendCall), which carry the callback's
// arguments in the event itself.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It doubles as a duration; the arithmetic is the same.
type Time int64

// Common durations, mirroring package time but in simulated Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = 1<<63 - 1

// MaxSeconds bounds every time an input gives — a spec field or a
// command-line flag, in seconds or milliseconds — at about 11.6 days: far
// beyond any experiment, and far inside the clock's range of about 292
// years, so a checked value converts through Seconds or Millis without
// wrapping into a negative Time.
const MaxSeconds = 1e6

// CheckSeconds returns an error naming the input unless v is a number of
// seconds in [lo, MaxSeconds]. lo is 0 for a time or a duration and
// -MaxSeconds for an offset that may be negative. NaN and infinities fail.
func CheckSeconds(name string, v, lo float64) error {
	if !(v >= lo && v <= MaxSeconds) {
		return fmt.Errorf("%s must be in [%g, %g] seconds, got %v", name, lo, MaxSeconds, v)
	}
	return nil
}

// CheckMillis returns an error naming the input unless v is a duration of
// at most MaxSeconds, in milliseconds: [0, 1000*MaxSeconds]. NaN and
// infinities fail.
func CheckMillis(name string, v float64) error {
	if !(v >= 0 && v <= 1e3*MaxSeconds) {
		return fmt.Errorf("%s must be in [0, %g] ms, got %v", name, 1e3*MaxSeconds, v)
	}
	return nil
}

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point number of milliseconds to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t using time.Duration notation ("1.5s", "250ms", ...).
func (t Time) String() string { return time.Duration(t).String() }

// TransferTime returns the time needed to move n bytes at rate bytesPerSec.
// A rate of zero or less means "infinitely fast" and returns 0.
func TransferTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}

// Rate returns the throughput, in bytes per second, of moving n bytes in d.
// It returns 0 if d is not positive.
func Rate(n int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// FormatBytes renders a byte count with binary units (KiB, MiB, GiB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
