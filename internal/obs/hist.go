package obs

import (
	"sync/atomic"
	"time"
)

// HistogramBuckets is the number of finite bounds of a Histogram. The
// first bound is the histogram's base and each later one doubles, so a
// 16µs base ends at ~8.4s and a 64µs base at ~33.6s; anything slower lands
// in +Inf. Log spacing keeps relative error constant across four decades,
// which is what tail-latency analysis needs (a fixed-width ring can't
// resolve both a 200µs cache hit and a 4s straggler sweep).
const HistogramBuckets = 20

// DefaultHistogramBase is the first finite bound of a zero Histogram,
// sized for storage and ingest stages (the last bound, ~8.4s, fits a pack
// decode on cold spinning storage).
const DefaultHistogramBase = 16 * time.Microsecond

// Histogram is a fixed-bound, log-2 latency histogram. Observe is
// lock-free and allocation-free: one bounded scan over 20 shifted bounds,
// two atomic adds. The zero value is ready to use with
// DefaultHistogramBase; NewHistogram picks another base.
type Histogram struct {
	base   time.Duration                       // first finite bound; 0 means DefaultHistogramBase
	counts [HistogramBuckets + 1]atomic.Uint64 // per-bucket (non-cumulative); last = overflow
	sumNS  atomic.Int64
}

// NewHistogram returns an empty histogram whose first finite bound is base.
func NewHistogram(base time.Duration) *Histogram {
	return &Histogram{base: base}
}

func (h *Histogram) firstBound() time.Duration {
	if h.base == 0 {
		return DefaultHistogramBase
	}
	return h.base
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	base := h.firstBound()
	i := 0
	for i < HistogramBuckets && d > base<<i {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// bounds returns the finite bucket bounds in seconds, as exported in the
// Prometheus le labels.
func (h *Histogram) bounds() []float64 {
	out := make([]float64, HistogramBuckets)
	for i := range out {
		out[i] = (h.firstBound() << i).Seconds()
	}
	return out
}

// HistogramSnapshot is a consistent-enough copy for export: per-bucket
// counts read with atomic loads (a concurrent Observe may straddle the
// copy; the skew is at most the in-flight observations, never a torn
// value).
type HistogramSnapshot struct {
	// Cumulative[i] is the count of observations ≤ Base·2^i; the +Inf
	// count equals Count.
	Cumulative [HistogramBuckets]uint64
	SumNS      int64
	Count      uint64
	Base       time.Duration
}

// Snapshot captures the histogram's current state with cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Base: h.firstBound()}
	var cum uint64
	for i := 0; i < HistogramBuckets; i++ {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.SumNS = h.sumNS.Load()
	s.Count = cum + h.counts[HistogramBuckets].Load()
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket the rank falls in. Observations beyond the last finite
// bound clamp to it. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var prevCum uint64
	lower := time.Duration(0)
	for i := 0; i < HistogramBuckets; i++ {
		cum, bound := s.Cumulative[i], s.Base<<i
		if float64(cum) >= rank {
			inBucket := cum - prevCum
			if inBucket == 0 {
				return bound
			}
			frac := (rank - float64(prevCum)) / float64(inBucket)
			return lower + time.Duration(frac*float64(bound-lower))
		}
		prevCum = cum
		lower = bound
	}
	return s.Base << (HistogramBuckets - 1)
}

// Emit renders the histogram as one member of a Prometheus histogram
// family, with labels on every series.
func (h *Histogram) Emit(emit func(Sample), family, help string, labels []Label) {
	s := h.Snapshot()
	EmitHistogram(emit, family, help, labels, h.bounds(), s.Cumulative[:],
		time.Duration(s.SumNS).Seconds(), s.Count)
}
