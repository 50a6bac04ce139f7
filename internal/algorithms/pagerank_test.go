package algorithms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// refPageRank is the global power iteration with identical semantics
// (fixed iterations, dangling mass leaks).
func refPageRank(g *graph.Template, damping float64, iterations int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		for v := range next {
			next[v] = 0
		}
		for u := 0; u < n; u++ {
			lo, hi := g.OutEdges(u)
			if hi == lo {
				continue
			}
			share := rank[u] / float64(hi-lo)
			for e := lo; e < hi; e++ {
				next[g.Target(e)] += share
			}
		}
		for v := range rank {
			rank[v] = base + damping*next[v]
		}
	}
	return rank
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 500, M: 3, Seed: 21})
	parts := buildParts(t, g, 3)
	c := latencyFixture(t, g, 1, 1, 2)
	got, res, err := RunPageRank(g, parts, core.MemorySource{C: c}, 0.85, 20, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := refPageRank(g, 0.85, 20)
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
	// Rank mass conserved (no dangling vertices on undirected graphs).
	sum := 0.0
	for _, r := range got {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank mass = %v, want 1", sum)
	}
	if res.Supersteps < 20 {
		t.Errorf("supersteps = %d, want >= iterations", res.Supersteps)
	}
	// Hubs outrank leaves on a power-law graph.
	stats := graph.ComputeStats(g, 2)
	hub := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) == stats.MaxDegree {
			hub = v
			break
		}
	}
	leaf := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) <= 2 {
			leaf = v
			break
		}
	}
	if got[hub] <= got[leaf] {
		t.Errorf("hub rank %v not above leaf rank %v", got[hub], got[leaf])
	}
}

// TestPageRankRandomProperty cross-checks against the reference on random
// graphs, partition counts and iteration counts.
func TestPageRankRandomProperty(t *testing.T) {
	f := func(seed int64, kRaw, itRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		k := 1 + int(kRaw)%4
		if k > n {
			k = n
		}
		iters := 1 + int(itRaw)%10
		vs, es := gen.StandardSchemas()
		b := graph.NewBuilder("rand", vs, es)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < 3*n; e++ {
			b.AddUndirectedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 1, Delta: 1, Min: 0, Max: 1, Seed: seed})
		if err != nil {
			return false
		}
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		parts, err := subgraph.Build(g, a)
		if err != nil {
			return false
		}
		got, _, err := RunPageRank(g, parts, core.MemorySource{C: c}, 0.85, iters, bsp.Config{})
		if err != nil {
			return false
		}
		want := refPageRank(g, 0.85, iters)
		for v := range got {
			if math.Abs(got[v]-want[v]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankValidation(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 1})
	parts := buildParts(t, g, 1)
	if _, err := NewPageRank(g, parts, 0, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, err := NewPageRank(g, parts, 1.5, 10); err == nil {
		t.Error("damping > 1 accepted")
	}
	if _, err := NewPageRank(g, parts, 0.85, 0); err == nil {
		t.Error("0 iterations accepted")
	}
}

// TestIsExistsEdgeAppears demonstrates the paper's isExists mechanism for
// slow topology change: a bridge edge exists only from timestep 2 on, so
// TDSP can reach the far side only by waiting for the bridge to appear.
func TestIsExistsEdgeAppears(t *testing.T) {
	vs, _ := gen.StandardSchemas()
	es := graph.MustSchema(
		[]string{gen.AttrLatency, "exists"},
		[]graph.AttrType{graph.TFloat, graph.TBool},
	)
	b := graph.NewBuilder("bridge", vs, es)
	// 0 -- 1 == bridge ==> 2 -- 3 (undirected chain; the 1-2 bridge opens
	// at timestep 2).
	b.AddUndirectedEdge(0, 1)
	bridge := b.AddUndirectedEdge(1, 2)
	b.AddUndirectedEdge(2, 3)
	g := b.MustBuild()

	const delta = 10
	c := graph.NewCollection(g, 0, delta)
	li := g.EdgeSchema().Index(gen.AttrLatency)
	xi := g.EdgeSchema().Index("exists")
	for ts := 0; ts < 5; ts++ {
		ins := graph.NewInstance(g, ts, c.TimeOf(ts))
		for e := 0; e < g.NumEdges(); e++ {
			ins.EdgeCols[li].Floats[e] = 2
			ins.EdgeCols[xi].Bools[e] = g.EdgeID(e) != bridge || ts >= 2
		}
		if err := c.Append(ins); err != nil {
			t.Fatal(err)
		}
	}
	a := &partition.Assignment{K: 2, Parts: []int32{0, 0, 1, 1}}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	single := []BatchQuery{{Source: g.VertexIndex(0)}}
	prog, err := NewBatchTDSP(parts, single, 0, delta, gen.AttrLatency)
	if err != nil {
		t.Fatal(err)
	}
	prog.ExistsAttr = "exists"
	res, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: prog, Pattern: core.SequentiallyDependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	arr := prog.ArrivalsOf(0, parts, g)
	if arr[g.VertexIndex(1)] != 2 {
		t.Errorf("vertex 1 arrival %v, want 2", arr[g.VertexIndex(1)])
	}
	// Vertex 2 is only reachable once the bridge opens at t=20: wait at 1,
	// cross for 2 → arrival 22.
	if arr[g.VertexIndex(2)] != 22 {
		t.Errorf("vertex 2 arrival %v, want 22 (bridge opens at 20)", arr[g.VertexIndex(2)])
	}
	if arr[g.VertexIndex(3)] != 24 {
		t.Errorf("vertex 3 arrival %v, want 24", arr[g.VertexIndex(3)])
	}

	// Without honoring isExists the greedy traversal would cross at t=2.
	naive, err := NewBatchTDSP(parts, single, 0, delta, gen.AttrLatency)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: naive, Pattern: core.SequentiallyDependent,
	}); err != nil {
		t.Fatal(err)
	}
	wrong := naive.ArrivalsOf(0, parts, g)
	if wrong[g.VertexIndex(2)] != 4 {
		t.Errorf("ignoring isExists should cross immediately (got %v)", wrong[g.VertexIndex(2)])
	}
}

// TestIsExistsSSSP checks single-instance SSSP honors existence too.
func TestIsExistsSSSP(t *testing.T) {
	vs, _ := gen.StandardSchemas()
	es := graph.MustSchema(
		[]string{gen.AttrLatency, "exists"},
		[]graph.AttrType{graph.TFloat, graph.TBool},
	)
	b := graph.NewBuilder("cut", vs, es)
	b.AddUndirectedEdge(0, 1)
	dead := b.AddUndirectedEdge(1, 2)
	g := b.MustBuild()
	c := graph.NewCollection(g, 0, 1)
	ins := graph.NewInstance(g, 0, 0)
	li := g.EdgeSchema().Index(gen.AttrLatency)
	xi := g.EdgeSchema().Index("exists")
	for e := 0; e < g.NumEdges(); e++ {
		ins.EdgeCols[li].Floats[e] = 1
		ins.EdgeCols[xi].Bools[e] = g.EdgeID(e) != dead
	}
	if err := c.Append(ins); err != nil {
		t.Fatal(err)
	}
	a := &partition.Assignment{K: 1, Parts: []int32{0, 0, 0}}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewSSSP(parts, g.VertexIndex(0), gen.AttrLatency)
	prog.ExistsAttr = "exists"
	if _, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: prog, Pattern: core.SequentiallyDependent, Timesteps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	dist := prog.Distances(parts, g)
	if !math.IsInf(dist[g.VertexIndex(2)], 1) {
		t.Errorf("vertex 2 should be unreachable over a non-existent edge, got %v", dist[g.VertexIndex(2)])
	}
	if dist[g.VertexIndex(1)] != 1 {
		t.Errorf("vertex 1 dist %v, want 1", dist[g.VertexIndex(1)])
	}
}
