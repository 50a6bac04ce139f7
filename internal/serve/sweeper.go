package serve

import (
	"context"
	"fmt"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// TDSPLookup reads one (source, target) answer out of a completed TDSP
// sweep: si indexes the batch query whose source the request named, vertex
// is the template index of the target. ok=false means the target was not
// reached by the departure.
type TDSPLookup func(si, vertex int) (arrival float64, timestep int, ok bool)

// MemeSpread is the result of one meme sweep: the global colored-vertex
// count plus the coloring timestep of each requested probe vertex (aligned
// with the probes argument; -1 means never colored).
type MemeSpread struct {
	Colored int
	ProbeAt []int
}

// Sweeper executes the three sweep kinds the scheduler batches. The
// Server's admission control, batching, result cache, and watermark
// pinning all live above this seam; a Sweeper only computes. Its one
// executor is localSweeper, which also runs each shard rank's share; the
// shard router implements the interface by scattering to partition-owning
// ranks and merging their partials, which is what keeps sharded answers
// byte-identical — everything above the seam is shared code.
type Sweeper interface {
	// SweepTDSP runs one multi-source time-dependent shortest-path sweep
	// over the first watermark timesteps and returns a lookup over its
	// arrivals. Queries are canonical: sources ascending, targets sorted
	// per source.
	SweepTDSP(ctx context.Context, watermark, depart int, queries []algorithms.BatchQuery) (TDSPLookup, error)
	// SweepTopN ranks vertices by a float attribute for count timesteps
	// starting at from, n entries per timestep, over the first watermark
	// timesteps.
	SweepTopN(ctx context.Context, watermark int, attr string, n, from, count int) ([][]RankEntry, error)
	// SweepMeme runs one meme spread over the first watermark timesteps.
	// Probes are template vertex indices, sorted ascending and unique.
	SweepMeme(ctx context.Context, watermark int, tag string, probes []int) (*MemeSpread, error)
}

// Resident is the resident time-series graph a sweep executor runs over,
// with the settings its sweeps read. Options names the same fields for a
// Server; a shard rank embeds a Resident in its RankConfig.
type Resident struct {
	// Template and Parts describe the full dataset: programs are built
	// over every partition, so source and target resolution and
	// per-source bookkeeping agree across a shard group. Source serves
	// the instances of the partitions this process owns.
	Template *graph.Template
	Parts    []*subgraph.PartitionData
	Source   core.InstanceSource

	// Delta, WeightAttr, TweetsAttr, Cores and Tracer are as in Options.
	Delta      float64
	WeightAttr string
	TweetsAttr string
	Cores      int
	Tracer     *obs.Tracer
}

// localSweeper is the one sweep executor: every sweep, in-process or on a
// shard rank, runs here, through the same algorithm entry points the
// offline tools use. Programs are built over the full partition set; jobs
// run the partitions this process owns. In-process tsserve owns them all
// and has no mesh. A member of a multi-member shard group owns its share
// and exchanges boundary messages with the rest of the group over the
// mesh; its answers are authoritative only for vertices of its own
// partitions, and the rank projects them onto those.
type localSweeper struct {
	res Resident
	// sources[c] is the instance source class c's sweeps read through:
	// res.Source, or a class-attributed view of it.
	sources [numClasses]core.InstanceSource
	owned   []*subgraph.PartitionData
	cfg     bsp.Config
	mesh    *algorithms.Mesh
}

// NewSweeper returns the sweep executor over res for a process that owns
// the partitions in owned (empty: none). node, when non-nil, links a shard
// group member to the other members; it must not have started yet.
func NewSweeper(res Resident, owned []*subgraph.PartitionData, node algorithms.MeshNode) Sweeper {
	return newSweeper(res, nil, owned, node)
}

// newSweeper is NewSweeper with classSource, when non-nil, supplying
// per-class views of res.Source (Options.ClassSource).
func newSweeper(res Resident, classSource func(string) core.InstanceSource, owned []*subgraph.PartitionData, node algorithms.MeshNode) *localSweeper {
	l := &localSweeper{res: res, owned: owned, cfg: bsp.Config{CoresPerHost: res.Cores}}
	if node != nil {
		l.mesh = algorithms.NewMesh(owned, node, l.cfg)
	}
	for c := Class(0); c < numClasses; c++ {
		l.sources[c] = res.Source
		if classSource != nil {
			if src := classSource(c.String()); src != nil {
				l.sources[c] = src
			}
		}
	}
	return l
}

// source pins class c's view of the resident graph to the first watermark
// timesteps.
func (l *localSweeper) source(c Class, watermark int) core.InstanceSource {
	return boundedSource{l.sources[c], watermark}
}

func (l *localSweeper) SweepTDSP(_ context.Context, watermark, depart int, queries []algorithms.BatchQuery) (TDSPLookup, error) {
	o := &l.res
	prog, _, err := algorithms.RunBatchTDSP(o.Template, o.Parts, queries, depart,
		l.source(ClassTDSP, watermark), o.Delta, o.WeightAttr, l.cfg, nil, o.Tracer, l.mesh)
	if err != nil {
		return nil, err
	}
	return prog.Arrival, nil
}

// SweepTopN ranks the owned partitions only: top-N is vertex-independent,
// so it never needs the mesh, and a router merges members' lists.
func (l *localSweeper) SweepTopN(_ context.Context, watermark int, attr string, n, from, count int) ([][]RankEntry, error) {
	steps, _, err := algorithms.RunTopNRange(l.res.Template, l.owned, attr, n,
		l.source(ClassTopN, watermark), from, count, l.cfg, nil, l.topNParallelism(count))
	if err != nil {
		return nil, err
	}
	out := make([][]RankEntry, len(steps))
	for i, vv := range steps {
		out[i] = make([]RankEntry, len(vv))
		for j, e := range vv {
			out[i][j] = RankEntry{Vertex: int64(e.Vertex), Value: e.Value}
		}
	}
	return out, nil
}

// topNParallelism is how many timesteps of a top-N window run at once.
func (l *localSweeper) topNParallelism(count int) int {
	return max(1, min(l.res.Cores, 4, count))
}

func (l *localSweeper) SweepMeme(_ context.Context, watermark int, tag string, probes []int) (*MemeSpread, error) {
	o := &l.res
	nv := o.Template.NumVertices()
	for _, v := range probes {
		if v < 0 || v >= nv {
			return nil, fmt.Errorf("serve: meme probe vertex index %d outside [0,%d)", v, nv)
		}
	}
	coloredAt, _, err := algorithms.RunMeme(o.Template, o.Parts, tag, o.TweetsAttr,
		l.source(ClassMeme, watermark), l.cfg, nil, o.Tracer, l.mesh)
	if err != nil {
		return nil, err
	}
	sp := &MemeSpread{ProbeAt: make([]int, len(probes))}
	for _, at := range coloredAt {
		if at >= 0 {
			sp.Colored++
		}
	}
	for i, v := range probes {
		sp.ProbeAt[i] = int(coloredAt[v])
	}
	return sp, nil
}
