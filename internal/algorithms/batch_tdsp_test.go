package algorithms

import (
	"math"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/metrics"
	"tsgraph/internal/subgraph"
)

func TestBatchTDSPMatchesSingleSourceRuns(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 41})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 8, Delta: 60, Min: 1, Max: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts := buildParts(t, g, 3)
	src := core.MemorySource{C: c}
	sources := []int{0, 17, 40, 63}
	queries := make([]BatchQuery, len(sources))
	for i, s := range sources {
		queries[i] = BatchQuery{Source: s} // no targets: every vertex
	}
	prog, _, err := RunBatchTDSP(g, parts, queries, 0, src, 60, gen.AttrLatency, bsp.Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range sources {
		requireArrivals(t, refTDSP(c, s, gen.AttrLatency, 60), prog.ArrivalsOf(si, parts, g))
	}
}

func TestBatchTDSPTargetHaltAndArrival(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, Seed: 43})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 10, Delta: 60, Min: 1, Max: 50, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts := buildParts(t, g, 2)
	src := core.MemorySource{C: c}
	queries := []BatchQuery{
		{Source: 0, Targets: []int{63, 63, 12}}, // duplicate target deduped
		{Source: 30, Targets: []int{5}},
	}
	rec := metrics.NewRecorder(len(parts))
	prog, res, err := RunBatchTDSP(g, parts, queries, 0, src, 60, gen.AttrLatency, bsp.Config{}, rec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := RunTDSP(g, parts, 0, src, 60, gen.AttrLatency, bsp.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []int{63, 12} {
		arr, at, ok := prog.Arrival(0, tgt)
		if !ok {
			t.Fatalf("target %d unresolved", tgt)
		}
		if arr != full[tgt] {
			t.Fatalf("target %d: batch arrival %v, offline %v", tgt, arr, full[tgt])
		}
		if at < 0 || at >= res.TimestepsRun {
			t.Fatalf("target %d finalized at timestep %d outside run (%d)", tgt, at, res.TimestepsRun)
		}
	}
	if !res.HaltedEarly && res.TimestepsRun == 10 {
		t.Log("run used the full window (graph converged late); halt condition untested")
	}
	// A vertex the batch never named is not resolvable.
	if _, _, ok := prog.Arrival(0, 33); ok {
		t.Error("unnamed vertex resolved")
	}
}

func TestBatchTDSPNonZeroDeparture(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, Seed: 45})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 8, Delta: 60, Min: 1, Max: 50, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	parts := buildParts(t, g, 2)
	src := core.MemorySource{C: c}
	const depart = 3
	prog, _, err := RunBatchTDSP(g, parts, []BatchQuery{{Source: 0}}, depart, src, 60, gen.AttrLatency, bsp.Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.ArrivalsOf(0, parts, g)
	// Reference: the same departure simulated by truncating the collection
	// to [depart, end) and shifting labels by depart·δ. Instead of
	// re-deriving that, check the invariants a later departure implies.
	if got[0] != float64(depart)*60 {
		t.Fatalf("source departs at %v, want %v", got[0], float64(depart)*60)
	}
	reached := 0
	for v := range got {
		if !math.IsInf(got[v], 1) {
			if got[v] < float64(depart)*60 {
				t.Fatalf("vertex %d arrival %v precedes departure", v, got[v])
			}
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("only %d vertices reached from a timestep-%d departure", reached, depart)
	}
}

func TestBatchTDSPValidation(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 47})
	parts := buildParts(t, g, 1)
	if _, err := NewBatchTDSP(parts, nil, 0, 60, gen.AttrLatency); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 1}, {Source: 1}}, 0, 60, gen.AttrLatency); err == nil {
		t.Error("duplicate sources accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 0}}, -1, 60, gen.AttrLatency); err == nil {
		t.Error("negative departure accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 99}}, 0, 60, gen.AttrLatency); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestCheckpointRestoreRejectsWrongShape restores checkpoints into programs
// of another shape: each restore must fail with an error instead of
// installing state that later reads index out of range.
func TestCheckpointRestoreRejectsWrongShape(t *testing.T) {
	small := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, Seed: 1})
	big := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, Seed: 1})
	smallParts, bigParts := buildParts(t, small, 4), buildParts(t, big, 4)
	tdsp := func(parts []*subgraph.PartitionData, sources ...int) core.Checkpointer {
		queries := make([]BatchQuery, len(sources))
		for i, s := range sources {
			queries[i] = BatchQuery{Source: s}
		}
		p, err := NewBatchTDSP(parts, queries, 0, 60, gen.AttrLatency)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name       string
		from, into core.Checkpointer
	}{
		{"tdsp vertex counts", tdsp(smallParts, 0), tdsp(bigParts, 0)},
		{"tdsp query count", tdsp(smallParts, 0, 1), tdsp(smallParts, 0)},
		{"tdsp partition count", tdsp(buildParts(t, small, 3), 0), tdsp(smallParts, 0)},
		{"meme vertex counts", NewMeme(smallParts, "#m", gen.AttrTweets), NewMeme(bigParts, "#m", gen.AttrTweets)},
	} {
		data, err := tc.from.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.into.RestoreCheckpoint(data); err == nil {
			t.Errorf("%s: a checkpoint of another shape was restored", tc.name)
		}
		if err := tc.from.RestoreCheckpoint(data); err != nil {
			t.Errorf("%s: own checkpoint refused: %v", tc.name, err)
		}
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to the TDSP and meme
// programs' RestoreCheckpoint: a restore either fails with an error or
// installs state every reader can index.
func FuzzCheckpointRestore(f *testing.F) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 1})
	parts := buildParts(f, g, 2)
	newTDSP := func() *BatchTDSPProgram {
		p, err := NewBatchTDSP(parts, []BatchQuery{{Source: 0}, {Source: 4, Targets: []int{8}}}, 0, 60, gen.AttrLatency)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	for _, cp := range []core.Checkpointer{newTDSP(), NewMeme(parts, "#m", gen.AttrTweets)} {
		data, err := cp.CheckpointState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p := newTDSP(); p.RestoreCheckpoint(data) == nil {
			for si := range p.Queries {
				p.ArrivalsOf(si, parts, g)
				p.Outputs(si, parts, g)
				p.Arrival(si, 8)
			}
		}
		if m := NewMeme(parts, "#m", gen.AttrTweets); m.RestoreCheckpoint(data) == nil {
			m.ColoredAt(parts, g)
		}
	})
}
