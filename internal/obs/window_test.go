package obs

import (
	"sync"
	"testing"
	"time"
)

func TestWindowCounterNilSafe(t *testing.T) {
	var w *WindowCounter
	w.Add(10, 5)
	if got := w.Total(10); got != 0 {
		t.Errorf("nil Total = %d, want 0", got)
	}
	if got := w.Rate(10); got != 0 {
		t.Errorf("nil Rate = %g, want 0", got)
	}
	if got := w.WindowSeconds(); got != 0 {
		t.Errorf("nil WindowSeconds = %d, want 0", got)
	}
}

func TestWindowCounterExpiry(t *testing.T) {
	w := NewWindowCounter(10)
	base := time.Now().Unix()
	w.startSec = base // pin for deterministic rate math
	w.Add(base, 4)
	w.Add(base+1, 6)
	if got := w.Total(base + 1); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	// base falls out of the window at base+10 (window covers (now-10, now]).
	if got := w.Total(base + 10); got != 6 {
		t.Errorf("Total after first slot expired = %d, want 6", got)
	}
	if got := w.Total(base + 11); got != 0 {
		t.Errorf("Total after full expiry = %d, want 0", got)
	}
}

func TestWindowCounterSlotRecycling(t *testing.T) {
	w := NewWindowCounter(3) // 4 slots: seconds s and s+4 share a slot
	base := time.Now().Unix()
	w.Add(base, 100)
	w.Add(base+4, 1) // recycles base's slot
	if got := w.Total(base + 4); got != 1 {
		t.Errorf("Total after recycle = %d, want 1 (stale count must not leak)", got)
	}
}

func TestWindowCounterRateEarlyLife(t *testing.T) {
	w := NewWindowCounter(60)
	base := time.Now().Unix()
	w.startSec = base
	w.Add(base, 50)
	w.Add(base+1, 50)
	// Two seconds alive: 100 events over 2 seconds, not over 60.
	if got := w.Rate(base + 1); got != 50 {
		t.Errorf("early-life Rate = %g, want 50", got)
	}
}

// TestLatencyHistogramQuantiles sanity-checks the power-of-two quantile
// walk.
func TestLatencyHistogramQuantiles(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Record(100 * time.Nanosecond) // bucket upper bound 127ns
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	snap := h.Snapshot()
	if p50 := snap.Quantile(0.50); p50 > 127*time.Nanosecond {
		t.Errorf("p50 = %v, want ≤ 127ns", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want around 1ms", p99)
	}
}

func TestWindowHistSnapshotAndQuantile(t *testing.T) {
	h := NewWindowHist(10)
	base := time.Now().Unix()
	for i := 0; i < 90; i++ {
		h.Record(base, time.Microsecond) // bucket for ~1us
	}
	for i := 0; i < 10; i++ {
		h.Record(base+1, time.Millisecond)
	}
	snap := h.Snapshot(base + 1)
	if snap.Count != 100 {
		t.Fatalf("Count = %d, want 100", snap.Count)
	}
	wantSum := int64(90)*int64(time.Microsecond) + int64(10)*int64(time.Millisecond)
	if snap.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", snap.Sum, wantSum)
	}
	if p50 := snap.Quantile(0.50); p50 > 10*time.Microsecond {
		t.Errorf("p50 = %v, want ~1us bucket bound", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 500*time.Microsecond {
		t.Errorf("p99 = %v, want ~1ms bucket bound", p99)
	}
	// Everything expires once the window slides past both seconds.
	if late := h.Snapshot(base + 20); late.Count != 0 {
		t.Errorf("Count after expiry = %d, want 0", late.Count)
	}
}

func TestWindowHistNilSafe(t *testing.T) {
	var h *WindowHist
	h.Record(5, time.Second)
	if snap := h.Snapshot(5); snap.Count != 0 {
		t.Errorf("nil Snapshot count = %d, want 0", snap.Count)
	}
}

func TestWindowConcurrentRecording(t *testing.T) {
	w := NewWindowCounter(5)
	h := NewWindowHist(5)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				now := time.Now().Unix()
				w.Add(now, 1)
				h.Record(now, time.Duration(j)*time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	now := time.Now().Unix()
	// Slot-recycle races may shed a bounded number of observations, but the
	// bulk must land (the test runs in well under one window).
	if got := w.Total(now); got < workers*perWorker/2 {
		t.Errorf("Total = %d, want >= %d", got, workers*perWorker/2)
	}
	if snap := h.Snapshot(now); snap.Count < workers*perWorker/2 {
		t.Errorf("hist Count = %d, want >= %d", snap.Count, workers*perWorker/2)
	}
}
