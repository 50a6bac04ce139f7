package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p95 at least 200.
const minTail = 10

// percentileOK reports whether n samples support percentile p (0..100)
// with at least minTail samples beyond it.
func percentileOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail
}

// quantile returns the nearest-rank p-th percentile (0..100) of sorted
// durations; 0 for an empty slice.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns ds sorted ascending without touching ds.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (mean of the middle two for an
// even count); 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// moreSetups reports whether a run sets up again after n set-ups that
// took spent in all: cheap set-ups repeat more, so their median settles.
func moreSetups(n int, spent time.Duration) bool {
	return n < minSetups || (n < maxSetups && spent < setupBudget)
}

// dueLatency is an open-loop request's latency: from when the schedule
// said it was due, not from when it was sent, so a stall also charges the
// requests queued behind it.
func dueLatency(due, done time.Time) time.Duration {
	return done.Sub(due)
}

// interval is a half-open time span [start, end).
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// clipUnion intersects each interval with within and returns the sorted,
// merged union of the pieces.
func clipUnion(ivs []interval, within []interval) []interval {
	var pieces []interval
	for _, w := range within {
		for _, iv := range ivs {
			s, e := iv.start, iv.end
			if s.Before(w.start) {
				s = w.start
			}
			if e.After(w.end) {
				e = w.end
			}
			if e.After(s) {
				pieces = append(pieces, interval{s, e})
			}
		}
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].start.Before(pieces[j].start) })
	var out []interval
	for _, p := range pieces {
		if n := len(out); n > 0 && !p.start.After(out[n-1].end) {
			if p.end.After(out[n-1].end) {
				out[n-1].end = p.end
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

func totalDur(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.dur()
	}
	return d
}

// selfTimes splits root across nested layers: levels[0] lies inside
// root, levels[1] inside levels[0], and so on. Each level's coverage is
// clipped to the coverage of the level above it, and a level's self time
// is its coverage minus the part the next level covers. The returned
// slice has len(levels)+1 entries (root first) and sums to root's
// duration exactly.
func selfTimes(root interval, levels [][]interval) []time.Duration {
	out := make([]time.Duration, len(levels)+1)
	cover := []interval{root}
	prev := root.dur()
	for i, lvl := range levels {
		cover = clipUnion(lvl, cover)
		cur := totalDur(cover)
		out[i] = prev - cur
		prev = cur
	}
	out[len(levels)] = prev
	return out
}

// intervalsIn returns the intervals of a start-sorted list that overlap
// [from, to), scanning only the candidates a binary search admits (no
// interval in the list is longer than maxLen).
func intervalsIn(sorted []interval, maxLen time.Duration, from, to time.Time) []interval {
	lo := sort.Search(len(sorted), func(i int) bool { return !sorted[i].start.Before(from.Add(-maxLen)) })
	var out []interval
	for i := lo; i < len(sorted) && sorted[i].start.Before(to); i++ {
		if sorted[i].end.After(from) {
			out = append(out, sorted[i])
		}
	}
	return out
}
