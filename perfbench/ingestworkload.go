package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/ingest"
	"tsgraph/internal/serve"
)

// mutationsPerAppend is how many edge latencies and vertex loads one
// append changes.
const mutationsPerAppend = 8

// headChecks is how many head answers are re-posted at their watermark
// and recomputed offline over that prefix.
const headChecks = 24

// runIngest runs ingest-live: single-process tsserve with ingest.Open on
// a v2 dataset, an open-loop writer appending timesteps alongside an
// open-loop query mix that reads the newest window.
func runIngest(r *report, seed int64, seconds time.Duration, trace bool) error {
	seedSteps := ingestRoad.Timesteps
	ds, err := genRoad(ingestRoad, ingestSweepT, true, seed)
	if err != nil {
		return err
	}
	root, err := dataRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(seed))
	// Every append is generated up front, and with it the timeline the
	// oracle reads: timestep seedSteps+k is timestep seedSteps+k-1 with
	// mutation k applied.
	nAppends := int(ingestAppendRate*(seconds+warmUp).Seconds()*1.3) + 16
	muts, full, err := genAppends(ds, nAppends, rng)
	if err != nil {
		return err
	}

	conns := runtime.NumCPU()
	s := &servingRun{r: r, ds: ds, cl: newClient(conns), conns: conns, rng: rng, seen: map[string]bool{}}
	defer s.cl.CloseIdleConnections()
	writer := newClient(1)
	defer writer.CloseIdleConnections()
	if trace {
		s.log = newSpanLog()
	}
	var head atomic.Int64
	head.Store(int64(seedSteps))
	o := &servingOracle{tmpl: ds.tmpl, memeWM: seedSteps}
	s.gen = &queryGen{rng: rng, o: o, tdsp: ingestTDSPShare, topn: ingestTopNShare,
		timestep: seedSteps, head: func() int { return int(head.Load()) }, keep: true}
	for _, i := range rng.Perm(ds.tmpl.NumVertices())[:hotSources] {
		s.gen.sources = append(s.gen.sources, i)
	}
	oracle := func(st *stored) error {
		whole := prefixSource{full, full.NumInstances()}
		o.tdsp = map[int]tdspRef{}
		for _, v := range s.gen.sources {
			ref, bad, err := tdspOracle(ds.tmpl, st.parts, whole, v, ds.delta)
			if err != nil {
				return err
			}
			for _, b := range bad {
				r.mismatch("%s", b)
			}
			o.tdsp[v] = ref
		}
		if o.topn, err = topNRef(ds.tmpl, st.parts, whole); err != nil {
			return err
		}
		o.meme, err = memeRef(ds.tmpl, st.parts, prefixSource{full, seedSteps})
		return err
	}
	warm := func() error { return s.warmQueries(seedSteps) }
	if err := s.setUp(root, seed, stackOpts{cachePacks: ingestCachePacks, ingest: true, log: s.log}, oracle, warm); err != nil {
		return err
	}
	defer s.stk.close()

	r.note("dataset ROAD %dx%d, %d seed timesteps as v2 delta records (snapshot every %d, packs of %d), %d partitions; tsserve -ingest, instance cache %d packs",
		ingestRoad.Rows, ingestRoad.Cols, seedSteps, ingestRoad.SnapshotEvery, ingestRoad.Pack, partitions, ingestCachePacks)
	r.note("writer: %.0f appends/s of %d edge latencies + %d vertex loads each, 1 connection; queries %.0f/s on %d connections: %.0f%% TDSP from %d hot sources, %.0f%% top-%d over the newest %d-timestep window, rest meme pinned at watermark %d",
		ingestAppendRate, mutationsPerAppend, mutationsPerAppend, ingestQueryRate, conns,
		100*ingestTDSPShare, hotSources, 100*ingestTopNShare, topN, topNWindow, seedSteps)

	next := 0 // index of the next mutation to append
	appendOps := func(d time.Duration) []op {
		offs := poissonOffsets(s.rng, ingestAppendRate, d)
		out := make([]op, len(offs))
		for i, off := range offs {
			k := next
			next++
			out[i] = op{due: off, path: "/ingest", prepare: func() prepared {
				return prepared{body: muts[k], check: func(data []byte) error {
					var got struct{ Timestep, Watermark int }
					if err := json.Unmarshal(data, &got); err != nil {
						return err
					}
					if got.Timestep != seedSteps+k || got.Watermark != seedSteps+k+1 {
						return fmt.Errorf("append %d created timestep %d (watermark %d), want %d", k, got.Timestep, got.Watermark, seedSteps+k)
					}
					head.Store(int64(got.Watermark))
					return nil
				}}
			}}
		}
		return out
	}
	// both runs the writer and the query mix side by side for d.
	both := func(name string, d time.Duration, on bool) (*phaseStats, *phaseStats) {
		aops := appendOps(d)
		qops := s.gen.ops(poissonOffsets(s.rng, ingestQueryRate, d))
		if next > len(muts) {
			panic("perfbench: too few generated appends") // sized above from the same rates
		}
		var log *spanLog
		if on {
			log = s.log
			log.on.Store(true)
		}
		var aouts, qouts []outcome
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			aouts = runOpenLoop(writer, s.stk.url, aops, 1, log, 0)
		}()
		qouts = runOpenLoop(s.cl, s.stk.url, qops, conns, log, 0)
		wg.Wait()
		if on {
			log.on.Store(false)
		}
		qs := summarize(name+" queries", qouts, ingestQueryRate)
		s.countProperties(qs, qouts)
		return qs, summarize(name+" appends", aouts, ingestAppendRate)
	}

	wq, wa := both("warm-up", warmUp, false)
	r.phase(wq, false)
	r.phase(wa, false)
	runtime.GC()
	if trace {
		return s.ingestTraced(seconds, both, full)
	}
	s.reportSetup(false)
	qs, as := both("nominal", seconds, false)
	r.phase(qs, true)
	r.phase(as, true)
	r.setLatency("query (from due time)", qs.latencies())
	al := as.latencies()
	r.note("append acknowledgement from due time: p50 %.3f ms, p95 %.3f ms over %d appends (fsync-bound: this host's storage, not a device's)",
		ms(quantile(al, 50)), ms(quantile(al, 95)), len(al))
	s.checkHead(full)
	r.set("resident_heap_mb", "MiB", heapMB())
	return nil
}

// genAppends draws the appended mutations and returns their JSON bodies
// with the full timeline they produce.
func genAppends(ds *dataset, n int, rng *rand.Rand) ([][]byte, *graph.Collection, error) {
	t := ds.tmpl
	full := graph.NewCollection(t, ds.coll.T0, ds.coll.Delta)
	for i := 0; i < ds.coll.NumInstances(); i++ {
		if err := full.Append(ds.coll.Instance(i)); err != nil {
			return nil, nil, err
		}
	}
	li := t.EdgeSchema().Index(gen.AttrLatency)
	vi := t.VertexSchema().Index(gen.AttrLoad)
	bodies := make([][]byte, n)
	for k := 0; k < n; k++ {
		prev := full.Instance(full.NumInstances() - 1)
		ins := prev.Clone()
		ins.Timestep = full.NumInstances()
		ins.Time = full.TimeOf(ins.Timestep)
		var mut ingest.Mutation
		for j := 0; j < mutationsPerAppend; j++ {
			u := rng.Intn(t.NumVertices())
			lo, hi := t.OutEdges(u)
			if hi > lo {
				w := t.Target(lo + rng.Intn(hi-lo))
				e := t.EdgeBetween(u, w) // the edge the server resolves (src, dst) to
				val := strconv.FormatFloat(latMin+rng.Float64()*(latMax-latMin), 'f', 3, 64)
				f, _ := strconv.ParseFloat(val, 64)
				ins.EdgeCols[li].Floats[e] = f
				mut.Edges = append(mut.Edges, ingest.EdgeSet{Src: int64(t.VertexID(u)), Dst: int64(t.VertexID(w)),
					Attr: gen.AttrLatency, Value: json.RawMessage(val)})
			}
			v := rng.Intn(t.NumVertices())
			val := strconv.FormatFloat(rng.Float64()*100, 'f', 2, 64)
			f, _ := strconv.ParseFloat(val, 64)
			ins.VertexCols[vi].Floats[v] = f
			mut.Vertices = append(mut.Vertices, ingest.VertexSet{ID: int64(t.VertexID(v)), Attr: gen.AttrLoad, Value: json.RawMessage(val)})
		}
		if err := full.Append(ins); err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(mut)
		if err != nil {
			return nil, nil, err
		}
		bodies[k] = body
	}
	return bodies, full, nil
}

// checkHead re-posts a sample of head answers pinned at their watermark
// (the answer must not change) and recomputes each offline over that
// prefix of the in-memory timeline.
func (s *servingRun) checkHead(full *graph.Collection) {
	g := s.gen
	g.mu.Lock()
	samples := g.samples
	g.samples = nil
	g.mu.Unlock()
	if len(samples) == 0 {
		s.r.mismatch("ingest: no head answers to check")
		return
	}
	step := max(1, len(samples)/headChecks)
	checked := 0
	for i := 0; i < len(samples) && checked < headChecks; i += step {
		h := samples[i]
		q := h.q
		q.Watermark = h.ans.Watermark
		a, err := s.post(q)
		if err != nil {
			s.r.mismatch("ingest: re-post at watermark %d: %v", q.Watermark, err)
			continue
		}
		if !reflect.DeepEqual(*a, h.ans) {
			s.r.mismatch("ingest: %s query pinned at %d answered %+v, head answered %+v", q.Kind, q.Watermark, *a, h.ans)
		}
		if err := s.offlinePrefix(full, q, a); err != nil {
			s.r.mismatch("ingest: offline run over prefix %d: %v", q.Watermark, err)
		}
		checked++
	}
	s.r.note("head check: %d head answers re-posted at their watermark and recomputed offline over that prefix", checked)
}

// offlinePrefix recomputes one answer with the engine over the in-memory
// prefix [0, watermark).
func (s *servingRun) offlinePrefix(full *graph.Collection, q serve.Query, a *serve.Answer) error {
	t := s.ds.tmpl
	src := prefixSource{full, q.Watermark}
	o := &servingOracle{tmpl: t, memeWM: s.gen.o.memeWM, meme: s.gen.o.meme}
	var err error
	switch q.Kind {
	case "tdsp":
		si := t.VertexIndex(graph.VertexID(q.Source))
		ref, e := engineTDSP(t, s.stk.st.parts, src, si, s.ds.delta)
		o.tdsp = map[int]tdspRef{si: ref}
		err = e
	case "topn":
		o.topn, err = topNRef(t, s.stk.st.parts, src)
	}
	if err != nil {
		return err
	}
	return o.check(q, a)
}

// ingestTraced runs the writer and query mix untraced, traced and
// untraced again (a quarter, half and quarter of the time) and reports the
// per-layer metrics of the traced half.
func (s *servingRun) ingestTraced(seconds time.Duration, both func(string, time.Duration, bool) (*phaseStats, *phaseStats), full *graph.Collection) error {
	r := s.r
	s.reportSetup(true)
	pq, pa := both("untraced", seconds/4, false)
	r.phase(pq, true)
	r.phase(pa, true)
	s.stk.tracer.Reset()
	c0 := s.stk.snapshot()
	sums := watchSummaries(s.stk.srv.Live())
	tq, ta := both("traced", seconds/2, true)
	byID := sums.close()
	c1 := s.stk.snapshot()
	r.phase(tq, true)
	r.phase(ta, true)
	aq, aa := both("untraced", seconds/4, false)
	r.phase(aq, true)
	r.phase(aa, true)
	s.layerMetrics(pooled(pq, aq), tq, ta, c0, c1, byID)
	r.saveTrace(s.log)
	s.checkHead(full)
	return nil
}
