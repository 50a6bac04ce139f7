package algorithms

import (
	"bytes"
	"encoding/gob"
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

// BatchQuery is one source of a multi-source TDSP batch, with the target
// vertices its clients asked about.
type BatchQuery struct {
	// Source is the template vertex index of the departure vertex.
	Source int
	// Targets are template vertex indices whose arrivals the batch must
	// resolve. A query with no targets asks for every vertex: it never
	// retires and runs its source until every vertex is finalized or the
	// window ends (a single-source TDSP is a batch of one such query).
	Targets []int
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

// BatchTDSPProgram implements Algorithm 2 of the paper, discrete-time
// Time-Dependent Shortest Path over a sequentially dependent TI-BSP run,
// for a batch of sources at once. Each timestep runs a horizon-capped SSSP
// per source over that instance's edge latencies; vertices reached within
// the current interval are finalized and become, via the uni-directional
// temporal ("idling") edges, the seeds of the next timestep at label
// timestep·δ. Per-source label/finalized state is kept side by side
// (flattened [source][vertex] arrays per partition) and messages carry
// their source, so the per-timestep fixed costs — instance load, superstep
// barriers, engine setup — are paid once for the whole batch, which is
// what makes micro-batched serving (internal/serve) win over one sweep per
// query. A single-source run is a batch of one query without targets.
//
// BatchTDSPProgram deliberately does NOT implement core.IncrementalProgram:
// a subgraph whose edge latencies are unchanged still does new work every
// timestep, because the horizon (ts+1)·δ grows — previously out-of-reach
// vertices become reachable over identical latencies, and the finalized
// frontier re-seeds at the new label timestep·δ. A delta-clean subgraph is
// therefore not a convergence-clean subgraph, which is exactly the property
// incremental skipping relies on.
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
	// probing it (for the finalized counter).
	targetsOf map[int]map[int32][]int32
	// loc locates every source and target vertex named by the batch.
	loc map[int]vloc
	// remaining counts each query's unresolved targets; -1 marks a query
	// with no targets (it never retires). A query whose count reaches
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

// Compute implements core.Program: Alg 2 lines 1–25, once per batch member,
// over shared supersteps.
func (p *BatchTDSPProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	horizon := float64(timestep+1) * p.Delta
	// roots[si] are query si's Dijkstra roots; allocated on the first one,
	// so a subgraph with nothing to expand allocates nothing.
	var roots [][]int32
	addRoot := func(si int, lv int32) {
		if roots == nil {
			roots = make([][]int32, p.nsrc)
		}
		roots[si] = append(roots[si], lv)
	}

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
		// Lines 3–7, first timestep of the window: labels ← ∞, seed each
		// source that lives in this subgraph at the departure time.
		for si := 0; si < p.nsrc; si++ {
			base := si * nv
			for _, lv := range sg.Verts {
				labels[base+int(lv)] = Inf
				final[base+int(lv)] = false
			}
		}
		depart := float64(p.Depart) * p.Delta
		for _, s := range p.srcLocal[pd.PID] {
			if int(pd.SubgraphOf[s.lv]) == sg.SID.Index() {
				labels[s.si*nv+int(s.lv)] = depart
				addRoot(s.si, s.lv)
			}
		}
	case superstep == 0:
		// Lines 8–11: rebuild each live source's state from its temporal
		// message: the finalized set re-seeds at timestep·δ via the idling
		// edges; all other labels are discarded (edge values changed).
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
			f := m.Payload.(VertexSet)
			if !act[int(f.Source)] {
				continue
			}
			base := int(f.Source) * nv
			for _, lv := range f.Vertices {
				labels[base+int(lv)] = seed
				final[base+int(lv)] = true
				addRoot(int(f.Source), lv)
			}
		}
	default:
		// Lines 13–18: boundary updates from other subgraphs, per source.
		for _, m := range msgs {
			b := m.Payload.(LabelBatch)
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
					addRoot(int(b.Source), lv)
				}
			}
		}
	}

	if roots != nil {
		weight := edgeWeightFn(ctx, sg, p.WeightAttr, p.ExistsAttr)
		for si, r := range roots {
			if len(r) == 0 {
				continue
			}
			base := si * nv
			remote := modifiedSSSP(sg, labels[base:base+nv], final[base:base+nv], r, horizon, weight)
			sendBatches(ctx.SendTo, int32(si), remote)
		}
	}
	ctx.VoteToHalt()
}

// EndOfTimestep implements Alg 2 lines 26–31 per batch member: finalize
// newly reached vertices, count them toward the halt (every vertex for a
// query without targets, only its targets otherwise), and pass each
// source's finalized set along the temporal edge.
func (p *BatchTDSPProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	arrival := p.finalArrival[pd.PID]
	at := p.finalAt[pd.PID]
	targets := p.targetsOf[pd.PID]

	var done int64
	act := p.activeOf(sg)
	for si := 0; si < p.nsrc; si++ {
		if !act[si] {
			continue // retired this timestep or earlier: state is frozen
		}
		everyVertex := len(p.Queries[si].Targets) == 0
		base := si * nv
		var all []int32
		for _, lv := range sg.Verts {
			idx := base + int(lv)
			if !final[idx] && labels[idx] != Inf {
				final[idx] = true
				arrival[idx] = labels[idx]
				at[idx] = int32(timestep)
				if everyVertex {
					done++
				}
				for _, tsi := range targets[lv] {
					if int(tsi) == si {
						done++
						p.remaining[si].Add(-1)
					}
				}
			}
			if final[idx] {
				all = append(all, lv)
			}
		}
		if len(all) > 0 {
			ctx.SendToNextTimestep(VertexSet{Source: int32(si), Vertices: all})
		}
	}
	ctx.AddCounter(CounterFinalized, done)
}

// tdspCheckpoint is the gob payload of a TDSP checkpoint: the accumulators
// that outlive a timestep. Labels and the live-query snapshot are rebuilt
// at superstep 0 and need no persistence.
type tdspCheckpoint struct {
	Final     [][]bool
	Arrival   [][]float64
	FinalAt   [][]int32
	Remaining []int32
}

// CheckpointState implements core.Checkpointer.
func (p *BatchTDSPProgram) CheckpointState() ([]byte, error) {
	st := tdspCheckpoint{Final: p.final, Arrival: p.finalArrival, FinalAt: p.finalAt, Remaining: make([]int32, p.nsrc)}
	for si := range st.Remaining {
		st.Remaining[si] = p.remaining[si].Load()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint implements core.Checkpointer. A checkpoint taken by a
// program of another shape (query count, partition count or any
// partition's size) is refused.
func (p *BatchTDSPProgram) RestoreCheckpoint(data []byte) error {
	var st tdspCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("algorithms: tdsp restore: %w", err)
	}
	if len(st.Remaining) != p.nsrc {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint has %d queries, program has %d", len(st.Remaining), p.nsrc)
	}
	if !sameShape(st.Final, p.final) || !sameShape(st.Arrival, p.finalArrival) || !sameShape(st.FinalAt, p.finalAt) {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint partitions do not match the program's")
	}
	p.final, p.finalArrival, p.finalAt = st.Final, st.Arrival, st.FinalAt
	for si, r := range st.Remaining {
		p.remaining[si].Store(r)
	}
	return nil
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

// ArrivalsOf gathers query si's finalized arrivals over parts into a
// template-indexed array (Inf when unreached). For a query with targets,
// the array reflects the timesteps processed before the query retired (all
// targets resolved); arrivals at the named targets themselves are always
// exact.
func (p *BatchTDSPProgram) ArrivalsOf(si int, parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	out := make([]float64, t.NumVertices())
	for i := range out {
		out[i] = Inf
	}
	for _, pd := range parts {
		base := si * pd.NumVertices()
		for lv, g := range pd.GlobalIdx {
			if p.final[pd.PID][base+lv] {
				out[g] = p.finalArrival[pd.PID][base+lv]
			}
		}
	}
	return out
}

// Outputs derives query si's TDSPResult records over parts from the
// finalized state, one per finalized vertex, in the order a run keeps its
// Outputs: by timestep, then subgraph (in parts order), then ascending
// local vertex. Deriving them after the run keeps the sweep itself free of
// per-vertex output records.
func (p *BatchTDSPProgram) Outputs(si int, parts []*subgraph.PartitionData, t *graph.Template) []core.Output {
	byStep := make(map[int][]core.Output)
	for _, pd := range parts {
		base := si * pd.NumVertices()
		for _, sg := range pd.Subgraphs {
			for _, lv := range sg.Verts { // ascending
				idx := base + int(lv)
				if !p.final[pd.PID][idx] {
					continue
				}
				ts := int(p.finalAt[pd.PID][idx])
				byStep[ts] = append(byStep[ts], core.Output{Timestep: ts, From: sg.SID, Data: TDSPResult{
					Vertex:   t.VertexID(int(pd.GlobalIdx[lv])),
					Timestep: ts,
					Arrival:  p.finalArrival[pd.PID][idx],
				}})
			}
		}
	}
	steps := make([]int, 0, len(byStep))
	for ts := range byStep {
		steps = append(steps, ts)
	}
	sort.Ints(steps)
	var out []core.Output
	for _, ts := range steps {
		out = append(out, byStep[ts]...)
	}
	return out
}

// RunBatchTDSP sweeps the instance window [depart, end) once, resolving
// every query of the batch. When the run has no coordinator it halts as
// soon as everything the batch asks for is finalized: CounterFinalized
// summed over partitions reaches Σ_q len(q.Targets), with a query without
// targets counting every template vertex (Master-style global
// termination). A distributed member's timestep record covers only its
// own partitions, so members would disagree about that total and deadlock
// the barrier; a meshed sweep therefore runs the window out, with the same
// answers. mesh places the run on one member of a distributed group (nil:
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
	if job.Coordinator == nil {
		var want, done int64
		for _, q := range prog.Queries {
			if len(q.Targets) == 0 {
				want += int64(t.NumVertices())
			} else {
				want += int64(len(q.Targets))
			}
		}
		job.HaltCondition = func(ts int, tr *metrics.TimestepRecord) bool {
			if tr == nil {
				return false
			}
			for i := range tr.Parts {
				done += tr.Parts[i].Counters[CounterFinalized]
			}
			return done >= want
		}
	}
	res, err := mesh.run(job)
	if err != nil {
		return nil, nil, err
	}
	return prog, res, nil
}
