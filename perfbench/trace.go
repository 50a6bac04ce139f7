package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// span is one interval the benchmark recorded around a call into a layer.
// Parent is the id of the span that caused it, 0 when unknown.
type span struct {
	Layer      string
	ID, Parent int64
	Start, End time.Time
}

// spanLog keeps the benchmark's spans in memory while recording is on;
// with recording off every wrapper costs one atomic load.
type spanLog struct {
	on     atomic.Bool
	nextID atomic.Int64
	epoch  time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// active is nil-safe so untraced stacks can pass a nil log.
func (l *spanLog) active() bool { return l != nil && l.on.Load() }

// newID reserves a span id before the span ends, so a child can name it.
func (l *spanLog) newID() int64 { return l.nextID.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// record appends a finished span under a fresh id and returns the id.
func (l *spanLog) record(layer string, parent int64, start, end time.Time) int64 {
	id := l.newID()
	l.add(span{Layer: layer, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// byLayer returns each layer's spans as start-sorted intervals plus the
// longest one (the search bound intervalsIn needs).
func (l *spanLog) byLayer(layer string) ([]interval, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []interval
	var maxLen time.Duration
	for _, s := range l.spans {
		if s.Layer == layer {
			out = append(out, interval{s.Start, s.End})
			if d := s.End.Sub(s.Start); d > maxLen {
				maxLen = d
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out, maxLen
}

// byParent indexes spans of one layer by their parent id.
func (l *spanLog) byParent(layer string) map[int64]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64]span)
	for _, s := range l.spans {
		if s.Layer == layer && s.Parent != 0 {
			out[s.Parent] = s
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event document, one
// thread row per layer.
func (l *spanLog) writeChrome(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := obs.NewChromeWriter(f)
	l.mu.Lock()
	lanes := map[string]int{}
	for _, s := range l.spans {
		if _, ok := lanes[s.Layer]; !ok {
			lanes[s.Layer] = len(lanes) + 1
			cw.Event(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, lanes[s.Layer], s.Layer)
		}
		cw.Event(`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			s.Layer, lanes[s.Layer],
			float64(s.Start.Sub(l.epoch).Nanoseconds())/1e3,
			float64(s.End.Sub(s.Start).Nanoseconds())/1e3, s.ID, s.Parent)
	}
	l.mu.Unlock()
	for k, v := range meta {
		cw.SetMetadata(k, v)
	}
	if err := cw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution accumulates layer self times over the traced phase. Total
// is the traced end-to-end time the layers must add up to; whatever the
// layers do not cover is reported as the unattributed remainder.
type attribution struct {
	total time.Duration
	self  map[string]time.Duration
}

// attributionLayers is the fixed print order of the layers a self time
// can belong to.
var attributionLayers = []string{"loadgen", "transport", "serve", "core", "gofs", "ingest"}

func newAttribution() *attribution {
	return &attribution{self: map[string]time.Duration{}}
}

// addOp charges one operation: its end-to-end time and the self times of
// the layers it passed through (names aligned with durs).
func (a *attribution) addOp(total time.Duration, layers []string, durs []time.Duration) {
	a.total += total
	for i, l := range layers {
		a.self[l] += durs[i]
	}
}

func (a *attribution) unattributed() time.Duration {
	rest := a.total
	for _, d := range a.self {
		rest -= d
	}
	return rest
}

// emit reports each layer's self time and the remainder per operation.
func (a *attribution) emit(r *report, ops int) {
	per := func(d time.Duration) float64 {
		if ops == 0 {
			return 0
		}
		return ms(d) / float64(ops)
	}
	r.set("trace.e2e_ms", "ms", per(a.total))
	for _, l := range attributionLayers {
		r.set("self."+l+"_ms", "ms", per(a.self[l]))
	}
	r.set("self.unattributed_ms", "ms", per(a.unattributed()))
	line := fmt.Sprintf("attribution over %d ops (ms/op): e2e %.3f =", ops, per(a.total))
	for _, l := range attributionLayers {
		line += fmt.Sprintf(" %s %.3f +", l, per(a.self[l]))
	}
	r.note(line + fmt.Sprintf(" unattributed %.3f", per(a.unattributed())))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
