package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// This file holds the time-windowed aggregation primitives behind the live
// telemetry plane: a rolling event counter (WindowCounter) and a rolling
// power-of-two histogram (WindowHist). Both bucket observations into
// per-second slots of a fixed ring indexed by wall-clock second; recording
// is a handful of atomic operations with no locks, so hot paths (the query
// router's submit, the scheduler's refresh accounting) pay nanoseconds.
//
// Slot recycling is optimistic: when a recorder finds its slot stamped with
// a stale second it CAS-claims the slot and zeroes it. A concurrent
// recorder racing that reset can lose its observation into the zeroing —
// the classic sliding-window trade, acceptable for monitoring-grade rates
// (the error is bounded by one slot transition per second). Counters
// exposed through the all-time Registry remain exact; the windows only
// answer "what happened over the last N seconds".

// winSlot is one second's event count.
type winSlot struct {
	sec atomic.Int64
	n   atomic.Int64
}

// WindowCounter counts events over a trailing window of whole seconds.
// A nil *WindowCounter is a valid disabled counter (Add is a no-op, rates
// are 0), mirroring the nil-off discipline of Counter and Gauge.
type WindowCounter struct {
	slots    []winSlot
	window   int64
	startSec int64
}

// NewWindowCounter builds a counter over a trailing window of the given
// number of seconds (minimum 1). One extra slot holds the current partial
// second.
func NewWindowCounter(windowSeconds int) *WindowCounter {
	if windowSeconds < 1 {
		windowSeconds = 1
	}
	return &WindowCounter{
		slots:    make([]winSlot, windowSeconds+1),
		window:   int64(windowSeconds),
		startSec: time.Now().Unix(),
	}
}

// Add records n events at the given wall-clock second (time.Now().Unix();
// callers on hot paths pass a second they already computed). No-op on a
// nil receiver.
func (w *WindowCounter) Add(nowSec, n int64) {
	if w == nil {
		return
	}
	s := &w.slots[nowSec%int64(len(w.slots))]
	if old := s.sec.Load(); old != nowSec {
		if s.sec.CompareAndSwap(old, nowSec) {
			s.n.Store(0)
		}
	}
	s.n.Add(n)
}

// Total returns the number of events recorded during the window ending at
// nowSec (inclusive).
func (w *WindowCounter) Total(nowSec int64) int64 {
	if w == nil {
		return 0
	}
	var total int64
	for i := range w.slots {
		sec := w.slots[i].sec.Load()
		if sec > nowSec-w.window && sec <= nowSec {
			total += w.slots[i].n.Load()
		}
	}
	return total
}

// Rate returns events per second over the window ending at nowSec. Early
// in the counter's life the divisor is the elapsed time, not the full
// window, so a freshly started server reports its true rate instead of a
// diluted one.
func (w *WindowCounter) Rate(nowSec int64) float64 {
	if w == nil {
		return 0
	}
	span := w.effectiveSpan(nowSec)
	return float64(w.Total(nowSec)) / float64(span)
}

func (w *WindowCounter) effectiveSpan(nowSec int64) int64 {
	span := w.window
	if alive := nowSec - w.startSec + 1; alive < span {
		span = alive
	}
	if span < 1 {
		span = 1
	}
	return span
}

// WindowSeconds returns the configured window length.
func (w *WindowCounter) WindowSeconds() int {
	if w == nil {
		return 0
	}
	return int(w.window)
}

// histBuckets is the bucket count of the power-of-two histograms.
const histBuckets = 64

// Hist is a lock-free power-of-two duration histogram: bucket i counts
// observations in [2^(i-1), 2^i) nanoseconds. Quantiles come back as the
// upper bound of the bucket the rank falls in — coarse (within 2×) but
// cheap enough for the submit hot path. The zero value is ready to use. It
// backs the serving layer's all-time histograms and each second of a
// WindowHist alike. A record is two atomic adds: the count is the buckets'
// sum, read back at snapshot time, so a snapshot's count always agrees with
// its buckets.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// HistBucket is the index of the bucket a duration falls in (negative
// durations count as zero).
func HistBucket(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	idx := bits.Len64(uint64(d))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[HistBucket(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot reads the histogram.
func (h *Hist) Snapshot() HistSnapshot {
	var out HistSnapshot
	h.addTo(&out)
	return out
}

func (h *Hist) addTo(out *HistSnapshot) {
	out.Sum += h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		out.Buckets[i] += n
		out.Count += n
	}
}

func (h *Hist) reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// histSlot is one second's histogram. Only the CAS winner that re-stamps
// sec for a new second resets it.
type histSlot struct {
	sec atomic.Int64
	Hist
}

// WindowHist is a rolling power-of-two duration histogram over a trailing
// window of whole seconds. A nil *WindowHist is a valid disabled histogram.
type WindowHist struct {
	slots    []histSlot
	window   int64
	startSec int64
}

// NewWindowHist builds a histogram over a trailing window of the given
// number of seconds (minimum 1).
func NewWindowHist(windowSeconds int) *WindowHist {
	if windowSeconds < 1 {
		windowSeconds = 1
	}
	return &WindowHist{
		slots:    make([]histSlot, windowSeconds+1),
		window:   int64(windowSeconds),
		startSec: time.Now().Unix(),
	}
}

// Record adds one observation at the given wall-clock second. No-op on a
// nil receiver.
func (h *WindowHist) Record(nowSec int64, d time.Duration) {
	if h == nil {
		return
	}
	s := &h.slots[nowSec%int64(len(h.slots))]
	if old := s.sec.Load(); old != nowSec {
		if s.sec.CompareAndSwap(old, nowSec) {
			s.reset()
		}
	}
	s.Hist.Record(d)
}

// HistSnapshot is a point-in-time reading of a Hist or a WindowHist.
type HistSnapshot struct {
	// Buckets[i] counts observations in [2^(i-1), 2^i) nanoseconds
	// (non-cumulative).
	Buckets [histBuckets]int64
	// Count and Sum are the observation count and summed nanoseconds.
	Count int64
	Sum   int64
}

// Quantile returns the q-quantile as the upper bound of the bucket the
// rank falls in.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return time.Duration(int64(1)<<uint(i) - 1)
		}
	}
	return time.Duration(int64(1)<<62 - 1)
}

// Snapshot aggregates the live slots of the window ending at nowSec.
func (h *WindowHist) Snapshot(nowSec int64) HistSnapshot {
	var out HistSnapshot
	if h == nil {
		return out
	}
	for i := range h.slots {
		s := &h.slots[i]
		sec := s.sec.Load()
		if sec <= nowSec-h.window || sec > nowSec {
			continue
		}
		s.addTo(&out)
	}
	return out
}
