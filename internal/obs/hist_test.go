package obs

import (
	"testing"
	"time"
)

// TestHistogramBounds pins the exported le bounds: a zero Histogram
// doubles from 16µs (storage and ingest families), NewHistogram from the
// base it is given (64µs for the live query families).
func TestHistogramBounds(t *testing.T) {
	for _, tc := range []struct {
		h          *Histogram
		first, end time.Duration
	}{
		{&Histogram{}, 16 * time.Microsecond, 16 * time.Microsecond << 19},
		{NewHistogram(64 * time.Microsecond), 64 * time.Microsecond, 64 * time.Microsecond << 19},
	} {
		b := tc.h.bounds()
		if len(b) != HistogramBuckets || b[0] != tc.first.Seconds() || b[len(b)-1] != tc.end.Seconds() {
			t.Fatalf("bounds %v, want %d doubling from %v to %v", b, HistogramBuckets, tc.first, tc.end)
		}
		tc.h.Observe(tc.first)     // on the first bound: first bucket
		tc.h.Observe(tc.first + 1) // just above: second bucket
		tc.h.Observe(time.Hour)    // past the last bound: +Inf only
		s := tc.h.Snapshot()
		if s.Cumulative[0] != 1 || s.Cumulative[1] != 2 || s.Cumulative[HistogramBuckets-1] != 2 || s.Count != 3 {
			t.Fatalf("cumulative %v count %d", s.Cumulative, s.Count)
		}
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}
