package main

import (
	"fmt"
	"os"
	"time"

	"tsgraph"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// roadScale sizes a ROAD dataset; SnapshotEvery > 0 stores it as v2
// delta records, 0 as v1 packed slices.
type roadScale struct{ Rows, Cols, Timesteps, Pack, SnapshotEvery int }

// swScale sizes a SMALLWORLD dataset.
type swScale struct{ N, M, Timesteps, Pack, SnapshotEvery int }

const (
	latMin = 1.0
	latMax = 20.0
)

// dataset is one generated input: the template and the in-memory
// collection the oracle reads, plus how it is stored.
type dataset struct {
	name  string
	tmpl  *graph.Template
	coll  *graph.Collection
	delta float64
	opts  gofs.Options
}

// roadDelta picks the timestep period so a corner-source TDSP frontier
// needs about sweepT timesteps to cross the grid (the calibration the
// repository's experiments use).
func roadDelta(rows, cols, sweepT int) float64 {
	hopsPerStep := float64(rows+cols) / (1.4 * float64(sweepT))
	d := hopsPerStep * (latMin + latMax) / 2
	if d < latMax {
		d = latMax
	}
	return float64(int(d + 1))
}

// genRoad builds a ROAD template carrying latencies (uncorrelated, as in
// the paper) and vertex loads, plus SIR meme tweets when tweets is set.
func genRoad(sc roadScale, sweepT int, tweets bool, seed int64) (*dataset, error) {
	t := gen.RoadNetwork(gen.RoadConfig{
		Rows: sc.Rows, Cols: sc.Cols, RemoveFrac: 0.15, ShortcutFrac: 0.01,
		Seed: seed, Name: "ROAD",
	})
	delta := roadDelta(sc.Rows, sc.Cols, sweepT)
	hit := 0.30 // the paper's CARN hit probability
	if !tweets {
		hit = -1
	}
	c, err := genAttrs(t, sc.Timesteps, delta, 0, hit, seed)
	if err != nil {
		return nil, err
	}
	return &dataset{name: "ROAD", tmpl: t, coll: c, delta: delta,
		opts: gofs.Options{Pack: sc.Pack, SnapshotEvery: sc.SnapshotEvery}}, nil
}

// genSmallWorld builds a SMALLWORLD template with temporally correlated
// latencies (5% of edges change per timestep) and SIR meme tweets.
func genSmallWorld(sc swScale, seed int64) (*dataset, error) {
	t := gen.SmallWorld(gen.SmallWorldConfig{N: sc.N, M: sc.M, Seed: seed, Name: "SMALLWORLD"})
	const delta = 10.0
	c, err := genAttrs(t, sc.Timesteps, delta, 0.05, 0.05, seed)
	if err != nil {
		return nil, err
	}
	return &dataset{name: "SMALLWORLD", tmpl: t, coll: c, delta: delta,
		opts: gofs.Options{Pack: sc.Pack, SnapshotEvery: sc.SnapshotEvery}}, nil
}

// genAttrs fills the standard attributes: latencies, vertex loads and,
// unless hit is negative, SIR meme tweets spreading with probability hit.
func genAttrs(t *graph.Template, steps int, delta, churn, hit float64, seed int64) (*graph.Collection, error) {
	c, err := gen.RandomLatencies(t, gen.LatencyConfig{
		Timesteps: steps, Delta: int64(delta),
		Min: latMin, Max: latMax, Seed: seed + 1, Churn: churn,
	})
	if err != nil {
		return nil, err
	}
	if hit >= 0 {
		sir, err := gen.SIRTweets(t, gen.SIRConfig{
			Timesteps: steps, Delta: int64(delta),
			Memes: []string{memeTag}, SeedsPerMeme: 5,
			HitProb: hit, RecoverAfter: 3, BackgroundTags: 20, Seed: seed + 2,
		})
		if err != nil {
			return nil, err
		}
		ti := t.VertexSchema().Index(gen.AttrTweets)
		for s := 0; s < steps; s++ {
			c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
		}
	}
	if err := gen.RandomLoads(c, seed+3, 0, 100); err != nil {
		return nil, err
	}
	return c, nil
}

// stored is one set-up copy of a dataset: partitioned, written, opened.
type stored struct {
	dir    string
	assign *partition.Assignment
	parts  []*subgraph.PartitionData
	store  *gofs.Store
}

// setupTimes are the timed steps of one set-up: partitioning, the GoFS
// write and open, and server readiness (including the warm-up pass).
type setupTimes struct {
	partition, write, open, ready time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.partition + s.write + s.open + s.ready
}

// storeDataset partitions ds, writes it to a fresh directory under root
// and opens it, timing each step.
func storeDataset(ds *dataset, root string, seed int64, st *setupTimes) (*stored, error) {
	t0 := time.Now()
	assign, err := tsgraph.PartitionMultilevel(ds.tmpl, partitions, seed)
	if err != nil {
		return nil, err
	}
	parts, err := tsgraph.BuildSubgraphs(ds.tmpl, assign)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	dir, err := os.MkdirTemp(root, ds.name+"-")
	if err != nil {
		return nil, err
	}
	if err := gofs.WriteDatasetOptions(dir, ds.coll, assign, ds.opts); err != nil {
		return nil, fmt.Errorf("writing %s: %w", ds.name, err)
	}
	t2 := time.Now()
	store, err := gofs.Open(dir)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	st.partition += t1.Sub(t0)
	st.write += t2.Sub(t1)
	st.open += t3.Sub(t2)
	return &stored{dir: dir, assign: assign, parts: parts, store: store}, nil
}

// dataRoot makes the directory a run writes its datasets under, inside
// the working directory.
func dataRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "data-")
}

// packsOf counts the packs of a dataset with the given timesteps and
// packing factor.
func packsOf(timesteps, pack int) int { return (timesteps + pack - 1) / pack }
