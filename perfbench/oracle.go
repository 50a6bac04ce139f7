package main

import (
	"container/heap"
	"fmt"
	"math"

	"tsgraph"
	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/subgraph"
)

// The oracle computes reference answers from the generated in-memory
// collection, outside the storage and serving layers. TDSP is
// also checked against a plain time-dependent Dijkstra written here, so a
// change to the engine itself is caught too.

// prefixSource is the in-memory collection cut at a watermark.
type prefixSource struct {
	c *graph.Collection
	n int
}

func (p prefixSource) Timesteps() int { return p.n }

func (p prefixSource) Load(ts int) (*graph.Instance, error) {
	if ts < 0 || ts >= p.n {
		return nil, fmt.Errorf("timestep %d outside [0,%d)", ts, p.n)
	}
	return core.MemorySource{C: p.c}.Load(ts)
}

var oracleCfg = bsp.Config{CoresPerHost: cores}

// tdspRef is one source's TDSP answer: per template vertex the arrival
// time and the timestep it was finalized in (-1 when never).
type tdspRef struct {
	arrival []float64
	ts      []int
}

// engineTDSP runs the engine's TDSP over the in-memory prefix.
func engineTDSP(t *graph.Template, parts []*subgraph.PartitionData, src prefixSource, source int, delta float64) (tdspRef, error) {
	arr, res, err := tsgraph.TDSP(t, parts, source, src, delta, gen.AttrLatency, oracleCfg, nil)
	if err != nil {
		return tdspRef{}, err
	}
	ref := tdspRef{arrival: arr, ts: make([]int, len(arr))}
	for i := range ref.ts {
		ref.ts[i] = -1
	}
	for _, o := range res.Outputs {
		if r, ok := o.Data.(algorithms.TDSPResult); ok {
			ref.ts[t.VertexIndex(r.Vertex)] = r.Timestep
		}
	}
	return ref, nil
}

// plainTDSP is the paper's discrete-time TDSP as one global Dijkstra per
// timestep: finalized vertices seed timestep ts at ts·δ, labels may not
// pass the horizon (ts+1)·δ, and every vertex reached by the end of a
// timestep is finalized with its label.
func plainTDSP(t *graph.Template, src prefixSource, source int, delta float64) (tdspRef, error) {
	n := t.NumVertices()
	li := t.EdgeSchema().Index(gen.AttrLatency)
	ref := tdspRef{arrival: make([]float64, n), ts: make([]int, n)}
	final := make([]bool, n)
	labels := make([]float64, n)
	for v := range ref.ts {
		ref.arrival[v] = math.Inf(1)
		ref.ts[v] = -1
	}
	done := 0
	for ts := 0; ts < src.Timesteps() && done < n; ts++ {
		ins, err := src.Load(ts)
		if err != nil {
			return tdspRef{}, err
		}
		lat := ins.EdgeCols[li].Floats
		horizon := float64(ts+1) * delta
		h := &distHeap{}
		for v := range labels {
			labels[v] = math.Inf(1)
			if final[v] {
				labels[v] = float64(ts) * delta
				heap.Push(h, distItem{v, labels[v]})
			}
		}
		if ts == 0 {
			labels[source] = 0
			heap.Push(h, distItem{source, 0})
		}
		for h.Len() > 0 {
			it := heap.Pop(h).(distItem)
			if it.d > labels[it.v] {
				continue
			}
			lo, hi := t.OutEdges(it.v)
			for e := lo; e < hi; e++ {
				nd := it.d + lat[e]
				if nd > horizon {
					continue
				}
				u := t.Target(e)
				if final[u] || nd >= labels[u] {
					continue
				}
				labels[u] = nd
				heap.Push(h, distItem{u, nd})
			}
		}
		for v := range labels {
			if !final[v] && !math.IsInf(labels[v], 1) {
				final[v] = true
				ref.arrival[v], ref.ts[v] = labels[v], ts
				done++
			}
		}
	}
	return ref, nil
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// tdspOracle computes a source's reference with the engine and checks it
// against the plain Dijkstra on every vertex. Disagreements are returned
// as mismatch lines.
func tdspOracle(t *graph.Template, parts []*subgraph.PartitionData, src prefixSource, source int, delta float64) (tdspRef, []string, error) {
	ref, err := engineTDSP(t, parts, src, source, delta)
	if err != nil {
		return tdspRef{}, nil, err
	}
	plain, err := plainTDSP(t, src, source, delta)
	if err != nil {
		return tdspRef{}, nil, err
	}
	var bad []string
	for v := range ref.arrival {
		if ref.ts[v] != plain.ts[v] || (ref.ts[v] >= 0 && ref.arrival[v] != plain.arrival[v]) {
			bad = append(bad, fmt.Sprintf("oracle: tdsp source %d vertex %d: engine (%v @t%d) != dijkstra (%v @t%d)",
				t.VertexID(source), t.VertexID(v), ref.arrival[v], ref.ts[v], plain.arrival[v], plain.ts[v]))
		}
	}
	return ref, bad, nil
}

// topNRef ranks every timestep of the in-memory collection.
func topNRef(t *graph.Template, parts []*subgraph.PartitionData, src prefixSource) ([][]algorithms.VertexValue, error) {
	steps, _, err := algorithms.RunTopNRange(t, parts, gen.AttrLoad, topN, src, 0, src.Timesteps(), oracleCfg, nil, 1)
	return steps, err
}

// memeRef is the meme coloring over the in-memory prefix.
func memeRef(t *graph.Template, parts []*subgraph.PartitionData, src prefixSource) ([]int32, error) {
	at, _, err := tsgraph.TrackMeme(t, parts, memeTag, gen.AttrTweets, src, oracleCfg, nil)
	return at, err
}

// hashtagRef is the hashtag aggregation over the in-memory collection.
func hashtagRef(t *graph.Template, parts []*subgraph.PartitionData, src prefixSource) (*algorithms.HashtagStats, error) {
	st, _, err := tsgraph.AggregateHashtag(t, parts, memeTag, gen.AttrTweets, src, oracleCfg, nil, 1)
	return st, err
}
