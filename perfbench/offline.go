package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"tsgraph"
	"tsgraph/internal/algorithms"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/obs"
)

// offlineJob is one of the paper's three applications, run the way
// `tsrun -in <dir> -algo <name>` runs it: open the store, build the
// subgraphs, and run the algorithm over a fresh gofs.Loader.
type offlineJob struct {
	name  string
	st    *stored
	run   func(t *tsgraph.Template, parts []*tsgraph.PartitionData, src core.InstanceSource, rec *tsgraph.Recorder) (*tsgraph.Result, error)
	times []float64 // seconds, one per run
}

// jobRun is what one traced job run measured.
type jobRun struct {
	wall, open, core time.Duration
	loads            []interval
	root             interval
	supersteps       int
	messages         int64
	bytesRead        int64
	compute, flush   float64 // ms, from the tracer's step stats
	barrier          float64
}

func (j *offlineJob) once(log *spanLog, tracer *obs.Tracer) (jobRun, error) {
	var jr jobRun
	t0 := time.Now()
	store, err := gofs.Open(j.st.dir)
	if err != nil {
		return jr, err
	}
	t1 := time.Now()
	tmpl := store.Template()
	assign := store.Assignment()
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		return jr, err
	}
	var src core.InstanceSource = tsgraph.NewLoader(store)
	if log != nil {
		src = &tracedSource{src: src, log: log}
		tracer.Reset()
	}
	rec := tsgraph.NewRecorder(assign.K)
	c0 := time.Now()
	res, err := j.run(tmpl, parts, src, rec)
	c1 := time.Now()
	if err != nil {
		return jr, fmt.Errorf("%s job: %w", j.name, err)
	}
	jr.wall, jr.open, jr.core = c1.Sub(t0), t1.Sub(t0), c1.Sub(c0)
	jr.root = interval{t0, c1}
	jr.supersteps = res.Supersteps
	jr.messages = rec.TotalMessages()
	jr.bytesRead = store.Telemetry().BytesRead()
	if log != nil {
		log.record("gofs.open", 0, t0, t1)
		log.record("core.job", 0, c0, c1)
		all, maxLen := log.byLayer("gofs.load")
		jr.loads = intervalsIn(all, maxLen, t0, c1)
		jr.compute, jr.flush, jr.barrier, _ = stepTotals(tracer.StepStats())
	}
	return jr, nil
}

// runOffline runs offline-paper: TDSP over a ROAD dataset in v1 packed
// slices, then meme tracking and hashtag aggregation over a SMALLWORLD
// dataset in v2 delta records, in sequence, for the whole measured time.
func runOffline(r *report, seed int64, seconds time.Duration, trace bool) error {
	road, err := genRoad(offlineRoad, offlineRoad.Timesteps, false, seed)
	if err != nil {
		return err
	}
	sw, err := genSmallWorld(offlineSW, seed)
	if err != nil {
		return err
	}
	root, err := dataRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Set-up: partition, write and open both datasets, several times.
	var setupsS, partS, writeS, openS []float64
	var roadSt, swSt *stored
	for spent := time.Duration(0); moreSetups(len(setupsS), spent); {
		var times setupTimes
		if roadSt, err = storeDataset(road, root, seed, &times); err != nil {
			return err
		}
		if swSt, err = storeDataset(sw, root, seed, &times); err != nil {
			return err
		}
		spent += times.total()
		setupsS = append(setupsS, times.total().Seconds())
		partS = append(partS, times.partition.Seconds())
		writeS = append(writeS, times.write.Seconds())
		openS = append(openS, times.open.Seconds())
	}
	r.note("ROAD %dx%d, %d timesteps, v1 packs of %d; SMALLWORLD n=%d m=%d, %d timesteps, v2 deltas (snapshot every %d, packs of %d), 5%% latency churn; %d partitions, %d cores, inline loads (tsrun defaults)",
		offlineRoad.Rows, offlineRoad.Cols, offlineRoad.Timesteps, offlineRoad.Pack,
		offlineSW.N, offlineSW.M, offlineSW.Timesteps, offlineSW.SnapshotEvery, offlineSW.Pack, partitions, cores)

	// Oracle from the in-memory collections.
	src := 0 // the corner vertex: the frontier crosses the whole grid
	tdspRefs, bad, err := tdspOracle(road.tmpl, roadSt.parts, prefixSource{road.coll, road.coll.NumInstances()}, src, road.delta)
	if err != nil {
		return err
	}
	for _, b := range bad {
		r.mismatch("%s", b)
	}
	swMem := prefixSource{sw.coll, sw.coll.NumInstances()}
	memeWant, err := memeRef(sw.tmpl, swSt.parts, swMem)
	if err != nil {
		return err
	}
	hashWant, err := hashtagRef(sw.tmpl, swSt.parts, swMem)
	if err != nil {
		return err
	}

	cfg := tsgraph.EngineConfig{CoresPerHost: cores}
	var wrong []string
	jobs := []*offlineJob{
		{name: "tdsp", st: roadSt, run: func(t *tsgraph.Template, parts []*tsgraph.PartitionData, s core.InstanceSource, rec *tsgraph.Recorder) (*tsgraph.Result, error) {
			arr, res, err := tsgraph.TDSP(t, parts, src, s, road.delta, gen.AttrLatency, cfg, rec)
			if err == nil {
				for v := range arr {
					if arr[v] != tdspRefs.arrival[v] {
						wrong = append(wrong, fmt.Sprintf("tdsp job: vertex %d arrival %v, want %v", t.VertexID(v), arr[v], tdspRefs.arrival[v]))
						break
					}
				}
			}
			return res, err
		}},
		{name: "meme", st: swSt, run: func(t *tsgraph.Template, parts []*tsgraph.PartitionData, s core.InstanceSource, rec *tsgraph.Recorder) (*tsgraph.Result, error) {
			at, res, err := tsgraph.TrackMeme(t, parts, memeTag, gen.AttrTweets, s, cfg, rec)
			if err == nil {
				for v := range at {
					if at[v] != memeWant[v] {
						wrong = append(wrong, fmt.Sprintf("meme job: vertex %d colored at %d, want %d", t.VertexID(v), at[v], memeWant[v]))
						break
					}
				}
			}
			return res, err
		}},
		{name: "hashtag", st: swSt, run: func(t *tsgraph.Template, parts []*tsgraph.PartitionData, s core.InstanceSource, rec *tsgraph.Recorder) (*tsgraph.Result, error) {
			st, res, err := tsgraph.AggregateHashtag(t, parts, memeTag, gen.AttrTweets, s, cfg, rec, 1)
			if err == nil && !sameHashtag(st, hashWant) {
				wrong = append(wrong, fmt.Sprintf("hashtag job: got %+v, want %+v", *st, *hashWant))
			}
			return res, err
		}},
	}

	// round runs every job once, in order, and checks each answer; a
	// round's time is the sum of its jobs' wall times.
	var roundTimes []time.Duration
	round := func(log *spanLog, tracer *obs.Tracer, runs map[string][]jobRun) error {
		var sum time.Duration
		defer func() { roundTimes = append(roundTimes, sum) }()
		for _, j := range jobs {
			jr, err := j.once(log, tracer)
			if err != nil {
				return err
			}
			sum += jr.wall
			j.times = append(j.times, jr.wall.Seconds())
			if runs != nil {
				runs[j.name] = append(runs[j.name], jr)
			}
			r.attempted++
			for _, w := range wrong {
				r.mismatch("%s", w)
			}
			wrong = wrong[:0]
		}
		return nil
	}

	if !trace {
		r.set("setup_s", "s", medianFloat(setupsS))
		// One untimed round first, so the heap and page cache settle.
		if err := round(nil, nil, nil); err != nil {
			return err
		}
		roundTimes = nil
		for _, j := range jobs {
			j.times = nil
		}
		deadline := time.Now().Add(seconds)
		for rounds := 0; rounds < 3 || time.Now().Before(deadline); rounds++ {
			if err := round(nil, nil, nil); err != nil {
				return err
			}
		}
		for _, j := range jobs {
			r.note("%s job: %d runs, median %.4f s", j.name, len(j.times), medianFloat(j.times))
		}
		r.setLatency("round (TDSP, meme, hashtag as tsrun runs each)", sortedCopy(roundTimes))
		// The resident set of a batch analyst's process: the generated
		// collections and both stored datasets' partition views.
		r.set("resident_heap_mb", "MiB", heapMB())
		runtime.KeepAlive(road)
		runtime.KeepAlive(sw)
		runtime.KeepAlive(jobs)
		return nil
	}

	r.set("partition.setup_s", "s", medianFloat(partS))
	r.set("gofs.write_s", "s", medianFloat(writeS))
	r.set("gofs.open_s", "s", medianFloat(openS))
	return offlineTraced(r, jobs, round, seconds)
}

// offlineTraced runs a quarter of the time untraced, half traced (as
// `tsrun -trace` does, with the engine tracer installed) and a quarter
// untraced again, and reports the per-layer metrics per job.
func offlineTraced(r *report, jobs []*offlineJob, round func(*spanLog, *obs.Tracer, map[string][]jobRun) error, seconds time.Duration) error {
	medianSum := func() float64 {
		sum := 0.0
		for _, j := range jobs {
			sum += medianFloat(j.times)
			j.times = nil
		}
		return sum
	}
	untracedRounds := func() error {
		for end := time.Now().Add(seconds / 4); time.Now().Before(end); {
			if err := round(nil, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := untracedRounds(); err != nil {
		return err
	}
	before := make([][]float64, len(jobs))
	for i, j := range jobs {
		before[i], j.times = j.times, nil
	}

	log := newSpanLog()
	tracer := obs.NewTracer(0)
	tracer.Enable()
	core.SetDefaultTracer(tracer)
	defer core.SetDefaultTracer(nil)
	runs := map[string][]jobRun{}
	log.on.Store(true)
	start := time.Now()
	for end := start.Add(seconds / 2); time.Now().Before(end); {
		if err := round(log, tracer, runs); err != nil {
			return err
		}
	}
	phase := time.Since(start)
	log.on.Store(false)
	core.SetDefaultTracer(nil)
	traced := medianSum()
	for i, j := range jobs {
		j.times = before[i]
	}
	if err := untracedRounds(); err != nil {
		return err
	}
	untraced := medianSum()

	att := newAttribution()
	att.total = phase
	var n int
	var coreMS, loadMS, loads, supersteps, messages, bytesRead, compute, flush, barrier float64
	for _, j := range jobs {
		for _, jr := range runs[j.name] {
			n++
			self := selfTimes(jr.root, [][]interval{append([]interval{{jr.root.start, jr.root.start.Add(jr.open)}}, jr.loads...)})
			att.self["core"] += self[0]
			att.self["gofs"] += self[1]
			coreMS += ms(jr.core)
			loadMS += ms(totalDur(jr.loads))
			loads += float64(len(jr.loads))
			supersteps += float64(jr.supersteps)
			messages += float64(jr.messages)
			bytesRead += float64(jr.bytesRead)
			compute += jr.compute
			flush += jr.flush
			barrier += jr.barrier
		}
	}
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	r.set("trace.ops", "count", float64(n))
	att.emit(r, n)
	r.note("offline attribution: e2e is the traced phase's wall time; unattributed is the benchmark's own work between jobs (answer checks)")
	r.set("core.job_ms", "ms", per(coreMS))
	r.set("gofs.load_ms", "ms", per(loadMS))
	r.set("gofs.loads", "count", per(loads))
	r.set("gofs.bytes_read", "B", per(bytesRead))
	r.set("bsp.supersteps", "count", per(supersteps))
	r.set("bsp.messages", "count", per(messages))
	r.set("bsp.sweeps", "count", float64(n))
	r.set("bsp.compute_ms", "ms", per(compute))
	r.set("bsp.flush_ms", "ms", per(flush))
	r.set("bsp.barrier_ms", "ms", per(barrier))
	r.set("trace.overhead_pct", "%", 100*ratio(traced-untraced, untraced))
	r.note("trace overhead: sum of job medians %.4f s untraced vs %.4f s traced", untraced, traced)
	r.saveTrace(log)
	return nil
}

func sameHashtag(a, b *algorithms.HashtagStats) bool {
	if a.Hashtag != b.Hashtag || a.Total != b.Total || a.PeakTimestep != b.PeakTimestep || a.MaxRate != b.MaxRate || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}
