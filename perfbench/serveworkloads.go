package main

import (
	"math/rand"
	"os"
	"runtime"
	"time"

	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
)

// runServe runs serve-hot: single-process tsserve with the whole working
// set cached, under an open-loop query mix at a rate below capacity.
func runServe(r *report, seed int64, seconds time.Duration, trace bool) error {
	ds, err := genRoad(servingRoad, servingRoad.Timesteps, true, seed)
	if err != nil {
		return err
	}
	root, err := dataRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(seed))
	conns := runtime.NumCPU()
	s := &servingRun{r: r, ds: ds, cl: newClient(conns), conns: conns, rng: rng, seen: map[string]bool{}}
	defer s.cl.CloseIdleConnections()
	if trace {
		s.log = newSpanLog()
	}
	o := &servingOracle{tmpl: ds.tmpl}
	s.gen = &queryGen{rng: rng, o: o, tdsp: tdspShare, topn: topNShare, repeat: repeatShare,
		timestep: servingRoad.Timesteps}
	for _, i := range rng.Perm(ds.tmpl.NumVertices())[:hotSources] {
		s.gen.sources = append(s.gen.sources, i)
	}
	oracle := func(st *stored) error {
		src := prefixSource{ds.coll, servingRoad.Timesteps}
		o.tdsp = map[int]tdspRef{}
		for _, v := range s.gen.sources {
			ref, bad, err := tdspOracle(ds.tmpl, st.parts, src, v, ds.delta)
			if err != nil {
				return err
			}
			for _, b := range bad {
				r.mismatch("%s", b)
			}
			o.tdsp[v] = ref
		}
		if o.topn, err = topNRef(ds.tmpl, st.parts, src); err != nil {
			return err
		}
		o.meme, err = memeRef(ds.tmpl, st.parts, src)
		return err
	}
	opts := stackOpts{cachePacks: hotCachePacks, log: s.log}
	warm := func() error { return s.warmQueries(servingRoad.Timesteps) }
	if err := s.setUp(root, seed, opts, oracle, warm); err != nil {
		return err
	}
	defer s.stk.close()

	packs := packsOf(servingRoad.Timesteps, servingRoad.Pack)
	r.note("dataset ROAD %dx%d, %d timesteps, v1 packs of %d (%d packs = the working set), %d partitions; single-process tsserve, instance cache %d packs",
		servingRoad.Rows, servingRoad.Cols, servingRoad.Timesteps, servingRoad.Pack, packs, partitions, opts.cachePacks)
	r.note("query mix: %.0f%% TDSP from %d hot sources, %.0f%% top-%d over %d-timestep windows, rest meme with a probe; TDSP targets distinct per source until exhausted; %.0f%% exact repeats; %d keep-alive connections",
		100*tdspShare, hotSources, 100*topNShare, topN, topNWindow, 100*repeatShare, conns)

	s.warmUp(hotQueryRate)
	if trace {
		return s.tracedPhases(hotQueryRate, seconds)
	}
	s.reportSetup(false)
	ps := s.phase("nominal", hotQueryRate, seconds, nil)
	r.phase(ps, true)
	r.setLatency("query (from due time)", ps.latencies())
	r.set("resident_heap_mb", "MiB", heapMB())
	return nil
}

// warmUp runs the nominal rate untimed, so result and instance caches,
// connections and the heap settle before anything is measured.
func (s *servingRun) warmUp(rate float64) {
	s.r.phase(s.phase("warm-up", rate, warmUp, nil), false)
	runtime.GC()
}

// phase runs one open-loop query phase at rate for d.
func (s *servingRun) phase(name string, rate float64, d time.Duration, log *spanLog) *phaseStats {
	ops := s.gen.ops(poissonOffsets(s.rng, rate, d))
	outs := runOpenLoop(s.cl, s.stk.url, ops, s.conns, log, stallAbort)
	ps := summarize(name, outs, rate)
	s.countProperties(ps, outs)
	return ps
}

// countProperties counts the sent queries that repeat an earlier query
// of the run and those that read freshly appended timesteps.
func (s *servingRun) countProperties(ps *phaseStats, outs []outcome) {
	for i := range outs {
		if !outs[i].wasSent {
			continue
		}
		if s.seen[outs[i].body] {
			ps.repeats++
		}
		s.seen[outs[i].body] = true
		if outs[i].fresh {
			ps.fresh++
		}
	}
}

// tracedPhases runs the nominal rate untraced for a quarter of the time,
// traced for half, and untraced again, so the overhead comparison cancels
// a linear drift; it reports the per-layer metrics of the traced half.
func (s *servingRun) tracedPhases(rate float64, seconds time.Duration) error {
	r := s.r
	s.reportSetup(true)
	pre := s.phase("untraced", rate, seconds/4, nil)
	r.phase(pre, true)

	s.stk.tracer.Reset()
	c0 := s.stk.snapshot()
	sums := watchSummaries(s.stk.srv.Live())
	s.log.on.Store(true)
	ps := s.phase("traced", rate, seconds/2, s.log)
	s.log.on.Store(false)
	byID := sums.close()
	c1 := s.stk.snapshot()
	r.phase(ps, true)
	post := s.phase("untraced", rate, seconds/4, nil)
	r.phase(post, true)

	s.layerMetrics(pooled(pre, post), ps, nil, c0, c1, byID)
	r.saveTrace(s.log)
	return nil
}

// pooled merges the latency samples of untraced phases, sorted.
func pooled(phases ...*phaseStats) []time.Duration {
	var all []time.Duration
	for _, ps := range phases {
		all = append(all, ps.latencies()...)
	}
	return sortedCopy(all)
}

// layerMetrics reports every per-layer metric a serving phase measures:
// ps holds the traced queries, appends the traced appends (nil without a
// writer), base the untraced query latencies the overhead is measured
// against.
func (s *servingRun) layerMetrics(base []time.Duration, ps, appends *phaseStats, c0, c1 counters, byID map[string]live.Summary) {
	r := s.r
	ops := float64(ps.sent)
	r.set("trace.ops", "count", ops)
	per := func(x float64) float64 { return ratio(x, ops) }

	handlers := s.log.byParent("serve.handler")
	loads, maxLoad := s.log.byLayer("gofs.load")
	att := newAttribution()
	var handlerSum, transportSum time.Duration
	var swept, coalesced int
	for _, o := range ps.sentOutcomes {
		root := interval{o.due, o.done}
		h, ok := handlers[o.spanID]
		if !ok {
			att.addOp(root.dur(), []string{"loadgen"}, []time.Duration{o.sent.Sub(o.due)})
			continue
		}
		handlerSum += h.End.Sub(h.Start)
		transportSum += o.done.Sub(o.sent) - h.End.Sub(h.Start)
		levels := [][]interval{{{o.sent, o.done}}, {{h.Start, h.End}}}
		names := []string{"loadgen", "transport", "serve"}
		if sm, ok := byID[o.queryID]; ok && sm.SweepMS > 0 {
			swept++
			if sm.BatchSize > 1 {
				coalesced++
			}
			sw := interval{h.End.Add(-time.Duration(sm.SweepMS * 1e6)), h.End}
			levels = append(levels, []interval{sw}, intervalsIn(loads, maxLoad, sw.start, sw.end))
			names = append(names, "core", "gofs")
		}
		att.addOp(root.dur(), names, selfTimes(root, levels))
	}
	nOps := ps.sent
	if appends != nil {
		nOps += appends.sent
		s.ingestMetrics(appends, c0, c1, att)
	}
	att.emit(r, nOps)

	r.set("serve.handler_ms", "ms", per(ms(handlerSum)))
	r.set("serve.transport_ms", "ms", per(ms(transportSum)))
	rec := s.stk.srv.Live()
	r.set("serve.queue_ms", "ms", ms(rec.Quantile(int(serve.ClassTDSP), 0, 0.5)))
	r.set("serve.sweep_ms", "ms", ms(rec.Quantile(int(serve.ClassTDSP), 1, 0.5)))
	answered := float64(c1.answered - c0.answered)
	r.set("serve.sweeps_per_query", "1", ratio(float64(c1.sweeps-c0.sweeps), answered))
	r.set("serve.batch_size", "1", ratio(float64(c1.batched-c0.batched), float64(c1.batches-c0.batches)))
	lookups := float64(c1.resultHits - c0.resultHits + c1.resultMisses - c0.resultMisses)
	r.set("serve.result_lookups", "count", lookups)
	r.set("serve.result_hit_ratio", "1", ratio(float64(c1.resultHits-c0.resultHits), lookups))
	r.set("serve.rejected", "count", float64(c1.rejected-c0.rejected))

	s.gofsMetrics(ps, c0, c1, loads)
	s.bspMetrics()
	r.set("share.repeat", "1", ratio(float64(ps.repeats), ops))
	r.set("share.coalesced", "1", ratio(float64(coalesced), float64(swept)))
	r.set("share.fresh_reads", "1", ratio(float64(ps.fresh), ops))
	r.set("loadgen.late_p99_ms", "ms", ms(quantile(sortedCopy(ps.late), 99)))
	b, t := quantile(base, 50), quantile(ps.latencies(), 50)
	r.set("trace.overhead_pct", "%", 100*ratio(ms(t)-ms(b), ms(b)))
	r.note("trace overhead: query p50 %.3f ms untraced vs %.3f ms traced", ms(b), ms(t))
}

// gofsMetrics reports the storage layer's per-operation work.
func (s *servingRun) gofsMetrics(ps *phaseStats, c0, c1 counters, loads []interval) {
	r := s.r
	ops := float64(ps.sent)
	per := func(x float64) float64 { return ratio(x, ops) }
	r.set("gofs.loads", "count", per(float64(len(loads))))
	r.set("gofs.load_ms", "ms", per(ms(totalDur(loads))))
	decodes := float64(c1.cache.packLoads - c0.cache.packLoads)
	r.set("gofs.pack_decodes", "count", per(decodes))
	r.set("gofs.decode_ms", "ms", per(ms(c1.cache.decode-c0.cache.decode)))
	lookups := float64(c1.cache.hits - c0.cache.hits + c1.cache.misses - c0.cache.misses)
	r.set("gofs.cache_lookups", "count", lookups)
	r.set("gofs.cache_hit_ratio", "1", ratio(float64(c1.cache.hits-c0.cache.hits), lookups))
	r.set("gofs.bytes_read", "B", per(float64(c1.bytesRead-c0.bytesRead)))
	r.set("share.decode_loads", "1", ratio(decodes, float64(len(loads))))
}

// bspMetrics reports the engine's per-sweep compute, flush and barrier
// time from the step stats the server's tracer kept (TDSP sweeps record
// them; the ring holds the newest sweeps, counted by their first
// superstep of the departure timestep).
func (s *servingRun) bspMetrics() {
	c, f, b, n := stepTotals(s.stk.tracer.StepStats())
	s.r.set("bsp.sweeps", "count", n)
	s.r.set("bsp.compute_ms", "ms", ratio(c, n))
	s.r.set("bsp.flush_ms", "ms", ratio(f, n))
	s.r.set("bsp.barrier_ms", "ms", ratio(b, n))
}

// stepTotals sums step stats (ms) and counts the sweeps they cover.
func stepTotals(stats []obs.StepStat) (compute, flush, barrier, sweeps float64) {
	first := int32(-1)
	for _, st := range stats {
		if first < 0 || st.Part < first {
			first = st.Part
		}
	}
	for _, st := range stats {
		compute += float64(st.Compute) / 1e6
		flush += float64(st.Flush) / 1e6
		barrier += float64(st.Barrier) / 1e6
		if st.TS == 0 && st.Step == 0 && st.Part == first {
			sweeps++
		}
	}
	return compute, flush, barrier, sweeps
}

// ingestMetrics reports the append path and charges each traced append
// to the attribution.
func (s *servingRun) ingestMetrics(ps *phaseStats, c0, c1 counters, att *attribution) {
	r := s.r
	handlers := s.log.byParent("ingest.handler")
	var handlerSum time.Duration
	for _, o := range ps.sentOutcomes {
		root := interval{o.due, o.done}
		h, ok := handlers[o.spanID]
		if !ok {
			att.addOp(root.dur(), []string{"loadgen"}, []time.Duration{o.sent.Sub(o.due)})
			continue
		}
		handlerSum += h.End.Sub(h.Start)
		levels := [][]interval{{{o.sent, o.done}}, {{h.Start, h.End}}}
		att.addOp(root.dur(), []string{"loadgen", "transport", "ingest"}, selfTimes(root, levels))
	}
	appends := float64(c1.appends - c0.appends)
	r.set("ingest.appends", "count", appends)
	r.set("ingest.handler_ms", "ms", ratio(ms(handlerSum), float64(ps.sent)))
	for _, st := range []string{"validate", "wal", "fold", "publish"} {
		r.set("ingest."+st+"_ms", "ms", 1e3*ratio(c1.stageSum[st]-c0.stageSum[st], c1.stageCount[st]-c0.stageCount[st]))
	}
	r.set("ingest.fsyncs_per_append", "1", ratio(float64(c1.fsyncs-c0.fsyncs), appends))
}
