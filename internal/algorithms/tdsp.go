package algorithms

import (
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/subgraph"
)

// CounterFinalized is the per-partition metric TDSP accumulates: the number
// of (query, target) pairs finalized in a timestep, where a query without
// targets counts every vertex it finalizes. For a single-source run it is
// the number of vertices whose time-dependent shortest path was finalized
// (the paper's Fig 7a).
const CounterFinalized = "finalized"

// TDSPResult is one finalized vertex: the earliest time it can be reached
// from the source starting at t0.
type TDSPResult struct {
	Vertex   graph.VertexID
	Timestep int
	Arrival  float64
}

// RunTDSP runs TDSP from src over all instances of a source, as a batch of
// one query without targets. It stops early once every vertex is finalized
// (the paper's WIKI run converges in 4 of 50 timesteps). Returns
// template-indexed arrival times plus the run result, whose Outputs hold
// one TDSPResult per finalized vertex.
func RunTDSP(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	src int,
	source core.InstanceSource,
	delta float64,
	weightAttr string,
	cfg bsp.Config,
	rec *metrics.Recorder,
) ([]float64, *core.Result, error) {
	prog, res, err := RunBatchTDSP(t, parts, []BatchQuery{{Source: src}}, 0, source, delta, weightAttr, cfg, rec, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	res.Outputs = prog.Outputs(0, parts, t)
	return prog.ArrivalsOf(0, parts, t), res, nil
}
