package algorithms

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// CounterTargetsDone is the per-partition metric a batched TDSP run
// accumulates: the number of (query, target) pairs finalized in a timestep.
// RunBatchTDSP's halt condition stops the sweep once every target of every
// query is resolved.
const CounterTargetsDone = "targets-finalized"

// BatchQuery is one source of a multi-source TDSP batch, with the target
// vertices its clients asked about.
type BatchQuery struct {
	// Source is the template vertex index of the departure vertex.
	Source int
	// Targets are template vertex indices whose arrivals the batch must
	// resolve. The run halts early once every target of every query is
	// finalized; a query with no targets disables early halting and runs
	// its source to the end of the window.
	Targets []int
}

// BatchLabelBatch is a LabelBatch tagged with the batch query it belongs to
// (the boundary-update payload of a multi-source sweep).
type BatchLabelBatch struct {
	Source   int32
	Vertices []int32
	Labels   []float64
}

// BatchVertexSet is a VertexSet tagged with the batch query it belongs to
// (the per-source finalized set riding the temporal edge).
type BatchVertexSet struct {
	Source   int32
	Vertices []int32
}

func init() {
	registerPayload(BatchLabelBatch{})
	registerPayload(BatchVertexSet{})
}

// vloc locates a template vertex inside the partitioned view.
type vloc struct {
	pid int
	lv  int32
}

// srcSeed is one batch query's source vertex inside a partition.
type srcSeed struct {
	si int
	lv int32
}

// BatchTDSPProgram runs Algorithm 2 for many sources simultaneously over
// ONE sequentially dependent TI-BSP sweep: per-source label/finalized state
// is kept side by side (flattened [source][vertex] arrays per partition),
// messages are tagged with their source, and each timestep's ModifiedSSSP
// runs once per source with roots. The per-timestep fixed costs — instance
// load, superstep barriers, engine setup — are paid once for the whole
// batch, which is what makes micro-batched serving (internal/serve) win
// over one sweep per query. Arrivals are identical to running TDSPProgram
// once per source with the same departure timestep.
type BatchTDSPProgram struct {
	// Queries are the batch members; sources must be distinct.
	Queries []BatchQuery
	// Depart is the departure timestep shared by the whole batch; the run
	// must start at this timestep (core.Job.StartTimestep).
	Depart int
	// Delta is the instance period δ; the timestep-ts horizon is (ts+1)·δ.
	Delta float64
	// WeightAttr names the float edge attribute carrying travel times.
	WeightAttr string
	// ExistsAttr optionally names a bool edge attribute (the paper's
	// isExists); edges absent in an instance cannot be traversed then.
	ExistsAttr string

	nsrc int
	// Per-partition state, flattened [si*numVertices + lv]; written only by
	// the owning subgraph's Compute/EndOfTimestep.
	labels       [][]float64
	final        [][]bool
	finalArrival [][]float64
	finalAt      [][]int32 // timestep each slot finalized at; -1 until then
	// srcLocal lists, per partition, the batch sources it owns.
	srcLocal map[int][]srcSeed
	// targetsOf maps, per partition, a local vertex to the query indices
	// probing it (for the targets-finalized counter).
	targetsOf map[int]map[int32][]int32
	// loc locates every source and target vertex named by the batch.
	loc map[int]vloc
	// remaining counts each query's unresolved targets; -1 marks a query
	// with no targets (it runs the window out). A query whose count reaches
	// zero is retired: from the next timestep on it is skipped entirely, so
	// a resolved batch member stops paying sweep work just like a
	// single-query run halting early. Decremented under EndOfTimestep (any
	// partition may own the target), read after the timestep barrier.
	remaining []atomic.Int32
	// active snapshots, per subgraph, which queries were live at the
	// current timestep's start (written once at superstep 0, so the
	// decision is barrier-aligned and deterministic). Subgraph i of a
	// partition owns active[pid][i*nsrc:(i+1)*nsrc], so subgraphs of one
	// partition computing concurrently never write the same snapshot.
	active [][]bool
}

// activeOf returns subgraph sg's snapshot of the live queries.
func (p *BatchTDSPProgram) activeOf(sg *subgraph.Subgraph) []bool {
	i := sg.SID.Index()
	return p.active[sg.Part.PID][i*p.nsrc : (i+1)*p.nsrc]
}

// NewBatchTDSP builds a multi-source TDSP program over partitioned data.
// Query sources must be distinct (a serving layer deduplicates before
// batching); duplicate targets within a query are deduplicated here.
func NewBatchTDSP(parts []*subgraph.PartitionData, queries []BatchQuery, depart int, delta float64, weightAttr string) (*BatchTDSPProgram, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("algorithms: batch TDSP needs at least one query")
	}
	if depart < 0 {
		return nil, fmt.Errorf("algorithms: negative departure timestep %d", depart)
	}
	p := &BatchTDSPProgram{
		Queries:    queries,
		Depart:     depart,
		Delta:      delta,
		WeightAttr: weightAttr,
		nsrc:       len(queries),
		srcLocal:   make(map[int][]srcSeed),
		targetsOf:  make(map[int]map[int32][]int32),
		loc:        make(map[int]vloc),
	}
	needed := make(map[int]bool)
	seenSrc := make(map[int]bool)
	for i := range queries {
		q := &queries[i]
		if seenSrc[q.Source] {
			return nil, fmt.Errorf("algorithms: batch TDSP sources must be distinct (vertex index %d repeats)", q.Source)
		}
		seenSrc[q.Source] = true
		needed[q.Source] = true
		dedup := q.Targets[:0]
		seenTgt := make(map[int]bool, len(q.Targets))
		for _, tgt := range q.Targets {
			if seenTgt[tgt] {
				continue
			}
			seenTgt[tgt] = true
			needed[tgt] = true
			dedup = append(dedup, tgt)
		}
		q.Targets = dedup
	}
	p.remaining = make([]atomic.Int32, p.nsrc)
	for i := range queries {
		if len(queries[i].Targets) == 0 {
			p.remaining[i].Store(-1)
		} else {
			p.remaining[i].Store(int32(len(queries[i].Targets)))
		}
	}
	n := maxPID(parts)
	p.labels = make([][]float64, n)
	p.final = make([][]bool, n)
	p.finalArrival = make([][]float64, n)
	p.finalAt = make([][]int32, n)
	p.active = make([][]bool, n)
	for _, pd := range parts {
		nv := pd.NumVertices()
		p.labels[pd.PID] = make([]float64, p.nsrc*nv)
		p.final[pd.PID] = make([]bool, p.nsrc*nv)
		p.finalArrival[pd.PID] = make([]float64, p.nsrc*nv)
		at := make([]int32, p.nsrc*nv)
		for i := range at {
			at[i] = -1
		}
		p.finalAt[pd.PID] = at
		p.active[pd.PID] = make([]bool, p.nsrc*len(pd.Subgraphs))
		for lv, g := range pd.GlobalIdx {
			if needed[int(g)] {
				p.loc[int(g)] = vloc{pid: pd.PID, lv: int32(lv)}
			}
		}
	}
	for si, q := range queries {
		l, ok := p.loc[q.Source]
		if !ok {
			return nil, fmt.Errorf("algorithms: batch TDSP source vertex index %d not in the partitioned view", q.Source)
		}
		p.srcLocal[l.pid] = append(p.srcLocal[l.pid], srcSeed{si: si, lv: l.lv})
		for _, tgt := range q.Targets {
			tl, ok := p.loc[tgt]
			if !ok {
				return nil, fmt.Errorf("algorithms: batch TDSP target vertex index %d not in the partitioned view", tgt)
			}
			m := p.targetsOf[tl.pid]
			if m == nil {
				m = make(map[int32][]int32)
				p.targetsOf[tl.pid] = m
			}
			m[tl.lv] = append(m[tl.lv], int32(si))
		}
	}
	return p, nil
}

// edgeWeightFn builds the per-instance edge-weight closure shared by the
// TDSP variants: weightAttr travel times with optional existsAttr gating.
func edgeWeightFn(ctx *core.Context, sg *subgraph.Subgraph, weightAttr, existsAttr string) func(int) float64 {
	col := ctx.Instance().EdgeFloats(ctx.Template(), weightAttr)
	if col == nil {
		panic(fmt.Sprintf("algorithms: template lacks float edge attribute %q", weightAttr))
	}
	eg := sg.Part.EdgeGlobal
	exists := existsFn(ctx, existsAttr)
	return func(e int) float64 {
		if !exists(int(eg[e])) {
			return skipEdge
		}
		return col[eg[e]]
	}
}

// Compute implements core.Program: Alg 2 lines 1–25, once per batch member,
// over shared supersteps.
func (p *BatchTDSPProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	horizon := float64(timestep+1) * p.Delta
	rootsBySrc := make(map[int][]int32)

	// Snapshot which queries are still live. Retirement counts only change
	// under EndOfTimestep, so reading them at superstep 0 — after the
	// timestep barrier — is race-free and every partition agrees.
	act := p.activeOf(sg)
	if superstep == 0 {
		for si := range act {
			act[si] = p.remaining[si].Load() != 0
		}
	}

	switch {
	case superstep == 0 && timestep == p.Depart:
		// First timestep of the window: labels ← ∞, seed each source that
		// lives in this subgraph at the departure time.
		for si := 0; si < p.nsrc; si++ {
			base := si * nv
			for _, lv := range sg.Verts {
				labels[base+int(lv)] = Inf
				final[base+int(lv)] = false
			}
		}
		if seeds := p.srcLocal[pd.PID]; len(seeds) > 0 {
			in := make(map[int32]bool, len(sg.Verts))
			for _, lv := range sg.Verts {
				in[lv] = true
			}
			depart := float64(p.Depart) * p.Delta
			for _, s := range seeds {
				if in[s.lv] {
					labels[s.si*nv+int(s.lv)] = depart
					rootsBySrc[s.si] = append(rootsBySrc[s.si], s.lv)
				}
			}
		}
	case superstep == 0:
		// Rebuild each live source's state from its temporal message: the
		// finalized set re-seeds at timestep·δ via the idling edges.
		// Retired queries are skipped wholesale — no rebuild, no re-seed,
		// no expansion — which is what keeps a batch member's cost
		// proportional to its own resolution time, not the batch's.
		for si := 0; si < p.nsrc; si++ {
			if !act[si] {
				continue
			}
			base := si * nv
			for _, lv := range sg.Verts {
				labels[base+int(lv)] = Inf
				final[base+int(lv)] = false
			}
		}
		seed := float64(timestep) * p.Delta
		for _, m := range msgs {
			f := m.Payload.(BatchVertexSet)
			if !act[int(f.Source)] {
				continue
			}
			base := int(f.Source) * nv
			for _, lv := range f.Vertices {
				labels[base+int(lv)] = seed
				final[base+int(lv)] = true
				rootsBySrc[int(f.Source)] = append(rootsBySrc[int(f.Source)], lv)
			}
		}
	default:
		// Boundary updates from other subgraphs, per source.
		for _, m := range msgs {
			b := m.Payload.(BatchLabelBatch)
			if !act[int(b.Source)] {
				continue
			}
			base := int(b.Source) * nv
			for i, lv := range b.Vertices {
				idx := base + int(lv)
				if final[idx] {
					continue
				}
				if b.Labels[i] < labels[idx] {
					labels[idx] = b.Labels[i]
					rootsBySrc[int(b.Source)] = append(rootsBySrc[int(b.Source)], lv)
				}
			}
		}
	}

	if len(rootsBySrc) > 0 {
		weight := edgeWeightFn(ctx, sg, p.WeightAttr, p.ExistsAttr)
		sis := make([]int, 0, len(rootsBySrc))
		for si := range rootsBySrc {
			sis = append(sis, si)
		}
		sort.Ints(sis)
		for _, si := range sis {
			base := si * nv
			remote := modifiedSSSP(sg, labels[base:base+nv], final[base:base+nv], rootsBySrc[si], horizon, weight)
			sendTaggedBatches(ctx.SendTo, int32(si), remote)
		}
	}
	ctx.VoteToHalt()
}

// sendTaggedBatches is sendBatches with a source tag: one sorted
// BatchLabelBatch per destination subgraph, deterministic emission order.
func sendTaggedBatches(send func(dst subgraph.ID, payload any), si int32, remote map[remoteKey]remoteCand) {
	batches := batchRemote(remote)
	dsts := make([]subgraph.ID, 0, len(batches))
	for dst := range batches {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		b := batches[dst]
		order := make([]int, len(b.Vertices))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return b.Vertices[order[i]] < b.Vertices[order[j]] })
		sorted := BatchLabelBatch{
			Source:   si,
			Vertices: make([]int32, len(order)),
			Labels:   make([]float64, len(order)),
		}
		for i, o := range order {
			sorted.Vertices[i] = b.Vertices[o]
			sorted.Labels[i] = b.Labels[o]
		}
		send(dst, sorted)
	}
}

// EndOfTimestep implements Alg 2 lines 26–31 per batch member: finalize
// newly reached vertices, count resolved targets, and pass each source's
// finalized set along the temporal edge.
func (p *BatchTDSPProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	arrival := p.finalArrival[pd.PID]
	at := p.finalAt[pd.PID]
	targets := p.targetsOf[pd.PID]

	var targetsDone int64
	allFinal := true
	act := p.activeOf(sg)
	for si := 0; si < p.nsrc; si++ {
		if !act[si] {
			continue // retired this timestep or earlier: state is frozen
		}
		base := si * nv
		for _, lv := range sg.Verts {
			idx := base + int(lv)
			if !final[idx] && labels[idx] != Inf {
				final[idx] = true
				arrival[idx] = labels[idx]
				at[idx] = int32(timestep)
				for _, tsi := range targets[lv] {
					if int(tsi) == si {
						targetsDone++
						p.remaining[si].Add(-1)
					}
				}
			}
		}
		var all []int32
		for _, lv := range sg.Verts {
			if final[base+int(lv)] {
				all = append(all, lv)
			}
		}
		if len(all) > 0 {
			ctx.SendToNextTimestep(BatchVertexSet{Source: int32(si), Vertices: all})
		}
		if len(all) != sg.NumVertices() {
			allFinal = false
		}
	}
	ctx.AddCounter(CounterTargetsDone, targetsDone)
	if allFinal {
		ctx.VoteToHaltTimestep()
	}
}

// Arrival returns query si's earliest arrival at a template vertex index
// that the batch named as a source or target, plus the timestep it
// finalized in. ok is false if the vertex was never reached within the
// processed window (or was not named by the batch).
func (p *BatchTDSPProgram) Arrival(si int, vertex int) (arrival float64, timestep int, ok bool) {
	l, found := p.loc[vertex]
	if !found || si < 0 || si >= p.nsrc {
		return Inf, -1, false
	}
	nv := len(p.final[l.pid]) / p.nsrc
	idx := si*nv + int(l.lv)
	if !p.final[l.pid][idx] {
		return Inf, -1, false
	}
	return p.finalArrival[l.pid][idx], int(p.finalAt[l.pid][idx]), true
}

// ArrivalsOf gathers query si's finalized arrivals into a template-indexed
// array (Inf when unreached), mirroring TDSPProgram.Arrivals. For a query
// with targets, the array reflects the timesteps processed before the query
// retired (all targets resolved); arrivals at the named targets themselves
// are always exact.
func (p *BatchTDSPProgram) ArrivalsOf(si int, parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	out := make([]float64, t.NumVertices())
	for i := range out {
		out[i] = Inf
	}
	for _, pd := range parts {
		nv := pd.NumVertices()
		base := si * nv
		for lv, g := range pd.GlobalIdx {
			if p.final[pd.PID][base+lv] {
				out[g] = p.finalArrival[pd.PID][base+lv]
			}
		}
	}
	return out
}

// RunBatchTDSP sweeps the instance window [depart, end) once, resolving
// every query of the batch. When every query names targets and the run has
// no coordinator, it halts as soon as all of them are finalized
// (Master-style global termination on CounterTargetsDone); otherwise it
// runs until the program's VoteToHaltTimestep consensus or the window's
// end. A distributed member's timestep record covers only its own
// partitions, so members would disagree about the target count and
// deadlock the barrier; the consensus gives the same early exit, and
// targets are finalized before their source retires, so answers are
// unchanged. mesh places the run on one member of a distributed group (nil:
// this process runs every partition). The returned program answers
// Arrival lookups.
func RunBatchTDSP(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	queries []BatchQuery,
	depart int,
	source core.InstanceSource,
	delta float64,
	weightAttr string,
	cfg bsp.Config,
	rec *metrics.Recorder,
	tracer *obs.Tracer,
	mesh *Mesh,
) (*BatchTDSPProgram, *core.Result, error) {
	prog, err := NewBatchTDSP(parts, queries, depart, delta, weightAttr)
	if err != nil {
		return nil, nil, err
	}
	job := &core.Job{
		Template:      t,
		Parts:         parts,
		Source:        source,
		Program:       prog,
		Pattern:       core.SequentiallyDependent,
		StartTimestep: depart,
		Config:        cfg,
		Recorder:      rec,
		Tracer:        tracer,
	}
	mesh.place(job)
	wantTargets := int64(0)
	allHaveTargets := true
	for _, q := range queries {
		if len(q.Targets) == 0 {
			allHaveTargets = false
		}
		wantTargets += int64(len(q.Targets))
	}
	if allHaveTargets && job.Coordinator == nil {
		var done int64
		job.HaltCondition = func(ts int, tr *metrics.TimestepRecord) bool {
			if tr == nil {
				return false
			}
			for i := range tr.Parts {
				done += tr.Parts[i].Counters[CounterTargetsDone]
			}
			return done >= wantTargets
		}
	}
	res, err := mesh.run(job)
	if err != nil {
		return nil, nil, err
	}
	return prog, res, nil
}
