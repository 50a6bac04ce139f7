package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/serve"
)

// servingOracle holds the reference answers the serving workloads check
// every response against.
type servingOracle struct {
	tmpl   *graph.Template
	tdsp   map[int]tdspRef            // by hot source (template index)
	topn   [][]algorithms.VertexValue // ranking of every timestep
	meme   []int32                    // coloring over the meme watermark
	memeWM int                        // watermark meme queries are pinned to (0 = head)
}

// headAnswer is a head-reading answer kept for the re-post check.
type headAnswer struct {
	q   serve.Query
	ans serve.Answer
}

// queryGen draws the query mix from a seeded generator.
type queryGen struct {
	rng      *rand.Rand
	o        *servingOracle
	sources  []int
	tdsp     float64    // share of TDSP queries
	topn     float64    // share of top-N queries; meme takes the rest
	repeat   float64    // share that exactly repeats an earlier query
	timestep int        // timesteps of the stored dataset; a window past it reads appended ones
	head     func() int // newest published watermark; nil when nothing is appended
	history  []serve.Query
	targets  map[int][]int // per source, targets not yet asked for

	mu      sync.Mutex
	samples []headAnswer // every head answer when keep is set
	keep    bool
}

func (g *queryGen) next() op {
	if len(g.history) > 0 && g.rng.Float64() < g.repeat {
		q := g.history[g.rng.Intn(len(g.history))]
		return op{path: "/query", prepare: g.prepareFor(q)}
	}
	t := g.o.tmpl
	var q serve.Query
	switch x := g.rng.Float64(); {
	case x < g.tdsp:
		src := g.sources[g.rng.Intn(len(g.sources))]
		tgt := g.nextTarget(src)
		q = serve.Query{Kind: "tdsp", Source: int64(t.VertexID(src)), Target: int64(t.VertexID(tgt))}
	case x < g.tdsp+g.topn:
		q = serve.Query{Kind: "topn", Attr: gen.AttrLoad, N: topN, Count: topNWindow}
		if g.head == nil {
			q.From = g.rng.Intn(g.timestep - topNWindow + 1)
		} else {
			q.From = -1 // resolved at send time to the newest window
		}
	default:
		v := int64(t.VertexID(g.rng.Intn(t.NumVertices())))
		q = serve.Query{Kind: "meme", Tag: memeTag, Vertex: &v, Watermark: g.o.memeWM}
	}
	if q.From >= 0 {
		g.history = append(g.history, q)
	}
	return op{path: "/query", prepare: g.prepareFor(q)}
}

// nextTarget walks a per-source permutation of the vertices, so a
// source's targets are distinct until every vertex has been asked for.
func (g *queryGen) nextTarget(src int) int {
	if g.targets == nil {
		g.targets = map[int][]int{}
	}
	for {
		if len(g.targets[src]) == 0 {
			g.targets[src] = g.rng.Perm(g.o.tmpl.NumVertices())
		}
		tgt := g.targets[src][0]
		g.targets[src] = g.targets[src][1:]
		if tgt != src {
			return tgt
		}
	}
}

// prepareFor builds the request at send time; a top-N query with From -1
// reads the newest window the writer has published.
func (g *queryGen) prepareFor(q serve.Query) func() prepared {
	return func() prepared {
		fresh := false
		if q.Kind == "topn" && q.From < 0 {
			q.From = max(0, g.head()-topNWindow)
			fresh = q.From+topNWindow > g.timestep
		}
		body, _ := json.Marshal(q)
		return prepared{body: body, fresh: fresh, check: func(data []byte) error {
			var a serve.Answer
			if err := json.Unmarshal(data, &a); err != nil {
				return fmt.Errorf("decoding answer: %w", err)
			}
			if err := g.o.check(q, &a); err != nil {
				return err
			}
			if g.keep && q.Watermark == 0 {
				g.mu.Lock()
				g.samples = append(g.samples, headAnswer{q: q, ans: a})
				g.mu.Unlock()
			}
			return nil
		}}
	}
}

// check compares one answer with the oracle at the answer's watermark.
func (o *servingOracle) check(q serve.Query, a *serve.Answer) error {
	t := o.tmpl
	if a.Kind != q.Kind {
		return fmt.Errorf("kind %q, want %q", a.Kind, q.Kind)
	}
	if q.Watermark > 0 && a.Watermark != q.Watermark {
		return fmt.Errorf("watermark %d, pinned %d", a.Watermark, q.Watermark)
	}
	switch q.Kind {
	case "tdsp":
		ref, ok := o.tdsp[t.VertexIndex(graph.VertexID(q.Source))]
		if !ok || a.TDSP == nil {
			return fmt.Errorf("no tdsp reference or payload")
		}
		v := t.VertexIndex(graph.VertexID(q.Target))
		reached := ref.ts[v] >= 0 && ref.ts[v] < a.Watermark
		got := a.TDSP
		if got.Reached != reached || (reached && (got.Arrival != ref.arrival[v] || got.Timestep != ref.ts[v])) {
			return fmt.Errorf("tdsp %d->%d at wm %d: got reached=%v %v@t%d, want reached=%v %v@t%d",
				q.Source, q.Target, a.Watermark, got.Reached, got.Arrival, got.Timestep, reached, ref.arrival[v], ref.ts[v])
		}
	case "topn":
		if a.TopN == nil || a.TopN.From != q.From || len(a.TopN.Steps) != q.Count {
			return fmt.Errorf("topn window: got %+v, want from %d count %d", a.TopN, q.From, q.Count)
		}
		for i, step := range a.TopN.Steps {
			if err := sameRanking(step, o.topn[q.From+i]); err != nil {
				return fmt.Errorf("topn t%d: %v", q.From+i, err)
			}
		}
	case "meme":
		if a.Meme == nil || a.Meme.ColoredAt == nil {
			return fmt.Errorf("meme payload missing")
		}
		colored := 0
		for _, at := range o.meme {
			if at >= 0 {
				colored++
			}
		}
		want := int(o.meme[t.VertexIndex(graph.VertexID(*q.Vertex))])
		if a.Meme.Colored != colored || *a.Meme.ColoredAt != want {
			return fmt.Errorf("meme: got colored %d at %d, want %d at %d", a.Meme.Colored, *a.Meme.ColoredAt, colored, want)
		}
	}
	return nil
}

func sameRanking(got []serve.RankEntry, want []algorithms.VertexValue) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Vertex != int64(want[i].Vertex) || got[i].Value != want[i].Value {
			return fmt.Errorf("entry %d: got %d=%v, want %d=%v", i, got[i].Vertex, got[i].Value, want[i].Vertex, want[i].Value)
		}
	}
	return nil
}

// ops draws one query per due offset.
func (g *queryGen) ops(offsets []time.Duration) []op {
	out := make([]op, len(offsets))
	for i, off := range offsets {
		out[i] = g.next()
		out[i].due = off
	}
	return out
}
