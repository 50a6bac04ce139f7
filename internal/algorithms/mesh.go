package algorithms

import (
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/subgraph"
)

// MeshNode is one member's link to the rest of a distributed group: it
// carries superstep messages and barriers (bsp.Remote) and the temporal
// exchange between timesteps (core.Coordinator), and delivers peers'
// messages into the engine bound to it. *cluster.Node is one.
type MeshNode interface {
	bsp.Remote
	core.Coordinator
	Bind(*bsp.Engine)
}

// Mesh places the sequentially dependent drivers (RunBatchTDSP, RunMeme) on
// one member of a distributed group. Programs are still built over every
// partition of the dataset, so source and target resolution and
// per-source bookkeeping agree across members; only the job's partitions
// are the member's own, and the node exchanges boundary messages with the
// rest of the group. Answers read afterwards are authoritative only for
// vertices of the member's partitions. A nil *Mesh is a single process
// running every partition.
type Mesh struct {
	local  []*subgraph.PartitionData
	node   MeshNode
	cfg    bsp.Config
	engine *bsp.Engine
}

// NewMesh builds the member's engine over local and binds it to node, so
// peers' messages for a sweep this member has not started yet wait in that
// engine rather than reaching a stale one. Every barrier of a completed
// sweep drains its superstep, so the engine serves the next sweep as it
// is; a failed sweep replaces it (see run). Call NewMesh before the node
// starts, and never run two sweeps through one Mesh at once.
func NewMesh(local []*subgraph.PartitionData, node MeshNode, cfg bsp.Config) *Mesh {
	m := &Mesh{local: local, node: node, cfg: cfg}
	m.bind()
	return m
}

func (m *Mesh) bind() {
	m.engine = bsp.NewEngineRemote(m.local, m.cfg, m.node)
	m.node.Bind(m.engine)
}

// place points job, whose Parts are every partition, at this member's
// share.
func (m *Mesh) place(job *core.Job) {
	if m == nil {
		return
	}
	job.GlobalSubgraphs = subgraph.TotalSubgraphs(job.Parts)
	job.Parts = m.local
	job.Remote, job.Coordinator = m.node, m.node
}

// run executes a placed job on the member's engine (nil Mesh: on an engine
// of its own).
func (m *Mesh) run(job *core.Job) (*core.Result, error) {
	if m == nil {
		return core.Run(job)
	}
	res, err := core.RunWithEngine(job, m.engine)
	if err != nil {
		// A sweep that failed part-way can leave peers' frames staged for
		// supersteps this engine never reached, and the next sweep would
		// promote them into its own. A fresh engine drops them.
		m.bind()
	}
	return res, err
}
