// Degraded-mode measurement: the resilient source wrapper. The measurement
// path must degrade instead of failing — a flaky powercap read should cost
// one retry, not an aborted experiment. Resilient wraps any Source with
// bounded retry + backoff on transient errors, last-known-good interpolation
// for isolated missed reads, and fallback to a secondary source (usually the
// simulator) when the primary dies entirely, marking the discontinuity so
// reports can say which joules are estimated.
package rapl

import (
	"fmt"
	"time"
)

// Health tallies the degraded-path events a measurement source has absorbed.
// The zero value means every read succeeded on the first attempt. Tallies
// from independent runs Add-merge field-wise.
type Health struct {
	Reads           int // snapshots requested by callers
	Retries         int // re-reads issued after transient errors
	Interpolated    int // reads served from the last-known-good value
	Fallbacks       int // reads served by the fallback source
	Discontinuities int // primary→fallback switches (energy baseline rebased)
	Quarantined     int // zones dropped after consecutive read failures
	Resets          int // backwards counter jumps with no declared wrap range
}

// Degraded reports whether any read took a degraded path.
func (h Health) Degraded() bool {
	return h.Retries+h.Interpolated+h.Fallbacks+h.Quarantined+h.Resets > 0
}

// Add returns the field-wise sum of two health tallies.
func (h Health) Add(o Health) Health {
	return Health{
		Reads:           h.Reads + o.Reads,
		Retries:         h.Retries + o.Retries,
		Interpolated:    h.Interpolated + o.Interpolated,
		Fallbacks:       h.Fallbacks + o.Fallbacks,
		Discontinuities: h.Discontinuities + o.Discontinuities,
		Quarantined:     h.Quarantined + o.Quarantined,
		Resets:          h.Resets + o.Resets,
	}
}

// String renders the tally in the compact form the CLIs print.
func (h Health) String() string {
	return fmt.Sprintf("reads=%d retries=%d interpolated=%d fallbacks=%d quarantined=%d resets=%d discontinuities=%d",
		h.Reads, h.Retries, h.Interpolated, h.Fallbacks, h.Quarantined, h.Resets, h.Discontinuities)
}

// HealthReporter is implemented by sources that track degraded-path tallies.
// The profiler uses it to flag records measured through a degraded read.
type HealthReporter interface {
	Health() Health
}

// Add returns the per-domain sum a + b.
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		Package: a.Package + b.Package,
		Core:    a.Core + b.Core,
		DRAM:    a.DRAM + b.DRAM,
	}
}

// Resilient wraps a primary Source with retry, interpolation and fallback.
// Snapshots stay monotonically non-decreasing per domain through every
// degraded path: interpolation repeats the last value, and fallback readings
// are rebased onto the last good primary reading.
type Resilient struct {
	primary  Source
	fallback Source
	retries  int // extra attempts after a failed read
	maxMiss  int // consecutive failed snapshots bridged by interpolation
	backoff  func(attempt int)

	health   Health
	last     Snapshot
	haveLast bool
	misses   int

	onFallback bool
	base       Snapshot // last good primary reading at switch time
	fbBase     Snapshot // first fallback reading at switch time
}

// ResilientOption configures the wrapper.
type ResilientOption func(*Resilient)

// WithFallback supplies the source used once the primary is declared dead.
func WithFallback(src Source) ResilientOption {
	return func(r *Resilient) { r.fallback = src }
}

// WithRetries bounds the extra attempts after a failed read (default 2).
func WithRetries(n int) ResilientOption {
	return func(r *Resilient) { r.retries = n }
}

// WithMaxMisses bounds how many consecutive failed snapshots are bridged by
// last-known-good interpolation before the primary is declared dead
// (default 1: a single missed read is interpolated, a second one escalates).
func WithMaxMisses(n int) ResilientOption {
	return func(r *Resilient) { r.maxMiss = n }
}

// WithBackoff replaces the inter-retry delay (default: attempt × 500 µs).
// Tests install a recording no-op.
func WithBackoff(f func(attempt int)) ResilientOption {
	return func(r *Resilient) { r.backoff = f }
}

// NewResilient builds the wrapper around primary.
func NewResilient(primary Source, opts ...ResilientOption) *Resilient {
	r := &Resilient{
		primary: primary,
		retries: 2,
		maxMiss: 1,
		backoff: func(attempt int) { time.Sleep(time.Duration(attempt) * 500 * time.Microsecond) },
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// OnFallback reports whether the primary has died and readings now come from
// the fallback source.
func (r *Resilient) OnFallback() bool { return r.onFallback }

// Health returns this wrapper's tally merged with the primary's own
// zone-level tally when the primary reports one.
func (r *Resilient) Health() Health {
	h := r.health
	if hr, ok := r.primary.(HealthReporter); ok {
		inner := hr.Health()
		inner.Reads = 0 // the wrapper already counts caller reads
		h = h.Add(inner)
	}
	return h
}

// readWithRetry attempts src.Snapshot up to 1+retries times with backoff.
func (r *Resilient) readWithRetry(src Source) (Snapshot, error) {
	snap, err := src.Snapshot()
	for attempt := 1; err != nil && attempt <= r.retries; attempt++ {
		r.backoff(attempt)
		r.health.Retries++
		snap, err = src.Snapshot()
	}
	return snap, err
}

// Snapshot implements Source with the full degraded-path ladder:
// retry → interpolate → fall back → fail.
func (r *Resilient) Snapshot() (Snapshot, error) {
	r.health.Reads++
	if r.onFallback {
		return r.fromFallback()
	}
	snap, err := r.readWithRetry(r.primary)
	if err == nil {
		r.misses = 0
		r.last, r.haveLast = snap, true
		return snap, nil
	}
	r.misses++
	if r.misses <= r.maxMiss && r.haveLast {
		// An isolated miss: repeat the last good reading. The energy spent
		// during the gap lands on the next successful read.
		r.health.Interpolated++
		return r.last, nil
	}
	if r.fallback == nil {
		return Snapshot{}, fmt.Errorf("rapl: source failed after %d attempts with no fallback: %w", r.retries+1, err)
	}
	// The primary is dead. Switch to the fallback and rebase its readings
	// onto the last good primary value so accumulated energy stays
	// monotonic; the joules lost between the last good read and the switch
	// are gone, which Discontinuities records.
	fb, ferr := r.readWithRetry(r.fallback)
	if ferr != nil {
		return Snapshot{}, fmt.Errorf("rapl: primary dead (%v) and fallback failed: %w", err, ferr)
	}
	r.onFallback = true
	r.health.Discontinuities++
	r.health.Fallbacks++
	r.base = r.last // zero value when the primary never produced a reading
	r.fbBase = fb
	r.last = r.base
	return r.base, nil
}

// fromFallback serves a reading from the fallback source, rebased onto the
// last good primary value.
func (r *Resilient) fromFallback() (Snapshot, error) {
	fb, err := r.readWithRetry(r.fallback)
	if err != nil {
		return Snapshot{}, fmt.Errorf("rapl: fallback source failed: %w", err)
	}
	r.health.Fallbacks++
	rebased := r.base.Add(fb.Sub(r.fbBase))
	r.last = rebased
	return rebased, nil
}
