package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
)

// servingRun is the state one serving workload run shares across its
// phases.
type servingRun struct {
	r      *report
	ds     *dataset
	stk    *stack
	cl     *http.Client
	conns  int
	log    *spanLog
	gen    *queryGen
	rng    *rand.Rand
	setups []setupTimes
	seen   map[string]bool // every query body sent so far, to measure repeats
}

// setUp stores the dataset and starts the deployment several times (see
// moreSetups), keeping the last; the oracle is computed after the first
// store (from the same deterministic partitioning) and is not timed. warm
// runs after each start and is charged to server readiness.
func (s *servingRun) setUp(root string, seed int64, o stackOpts, oracle func(*stored) error, warm func() error) error {
	for spent := time.Duration(0); moreSetups(len(s.setups), spent); {
		if s.stk != nil {
			s.stk.close()
			s.stk = nil
			s.cl.CloseIdleConnections()
		}
		var times setupTimes
		st, err := storeDataset(s.ds, root, seed, &times)
		if err != nil {
			return err
		}
		if len(s.setups) == 0 {
			if err := oracle(st); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
		}
		stk, err := startStack(s.ds, st, o, &times)
		if err != nil {
			return err
		}
		s.stk = stk
		w0 := time.Now()
		if err := warm(); err != nil {
			stk.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		times.ready += time.Since(w0)
		spent += times.total()
		s.setups = append(s.setups, times)
	}
	return nil
}

// reportSetup emits setup_s and the per-step set-up metrics (medians over
// the set-ups).
func (s *servingRun) reportSetup(trace bool) {
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(s.setups))
		for i, t := range s.setups {
			xs[i] = f(t).Seconds()
		}
		return medianFloat(xs)
	}
	if !trace {
		s.r.set("setup_s", "s", med(setupTimes.total))
		return
	}
	s.r.set("partition.setup_s", "s", med(func(t setupTimes) time.Duration { return t.partition }))
	s.r.set("gofs.write_s", "s", med(func(t setupTimes) time.Duration { return t.write }))
	s.r.set("gofs.open_s", "s", med(func(t setupTimes) time.Duration { return t.open }))
	s.r.set("serve.ready_s", "s", med(func(t setupTimes) time.Duration { return t.ready }))
}

// post sends one query outside any open loop and checks it.
func (s *servingRun) post(q serve.Query) (*serve.Answer, error) {
	body, _ := json.Marshal(q)
	resp, err := s.cl.Post(s.stk.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var a serve.Answer
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// warmQueries answers one query of each class, the top-N one over every
// timestep so every pack is read once.
func (s *servingRun) warmQueries(timesteps int) error {
	t := s.ds.tmpl
	src := s.gen.sources[0]
	v := int64(t.VertexID(t.NumVertices() - 1))
	qs := []serve.Query{
		{Kind: "topn", Attr: "load", N: topN, Count: timesteps},
		{Kind: "tdsp", Source: int64(t.VertexID(src)), Target: v},
		{Kind: "meme", Tag: memeTag, Vertex: &v, Watermark: s.gen.o.memeWM},
	}
	for _, q := range qs {
		a, err := s.post(q)
		if err != nil {
			return err
		}
		if q.Kind == "topn" {
			continue // a full-range ranking is not in the per-window oracle
		}
		if err := s.gen.o.check(q, a); err != nil {
			s.r.mismatch("warm-up %s: %v", q.Kind, err)
		}
	}
	return nil
}

// counters is a snapshot of every counter the deployment exports that a
// per-layer metric is a delta of.
type counters struct {
	cache                      cacheSnap
	bytesRead                  int64
	answered, sweeps, rejected int64
	batches, batched           int64
	resultHits, resultMisses   int64
	appends, fsyncs            int64
	stageSum                   map[string]float64
	stageCount                 map[string]float64
}

type cacheSnap struct {
	hits, misses, packLoads uint64
	decode                  time.Duration
}

func (s *stack) snapshot() counters {
	c := counters{bytesRead: s.st.store.Telemetry().BytesRead(),
		stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	cs := s.cache.Stats()
	c.cache = cacheSnap{cs.Hits, cs.Misses, cs.PackLoads, cs.DecodeTime}
	m := s.srv.Metrics()
	for _, cl := range []serve.Class{serve.ClassTDSP, serve.ClassTopN, serve.ClassMeme} {
		c.answered += m.Answered(cl)
		c.sweeps += m.Sweeps(cl)
		c.rejected += m.Rejected(cl)
		c.resultHits += m.ResultHits(cl)
		c.resultMisses += m.ResultMisses(cl)
	}
	c.batches, c.batched = m.Batches(), m.BatchedQueries()
	if s.ing != nil {
		c.fsyncs = s.ing.WALFsyncs()
		s.ing.Metrics().CollectObs(func(x obs.Sample) {
			switch {
			case x.Name == "tsingest_appends_total":
				c.appends = int64(x.Value)
			case x.Family == "tsingest_stage_seconds" && len(x.Labels) == 1:
				if strings.HasSuffix(x.Name, "_sum") {
					c.stageSum[x.Labels[0].Value] = x.Value
				} else if strings.HasSuffix(x.Name, "_count") {
					c.stageCount[x.Labels[0].Value] = x.Value
				}
			}
		})
	}
	return c
}

// ratio divides, reading 0 when the base is 0 (the base is reported
// beside every ratio).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// summaries collects the live recorder's per-query summaries while the
// traced phase runs; the recorder keeps only the newest 256, so it is
// polled often enough that none is missed at the offered rates.
type summaries struct {
	mu   sync.Mutex
	byID map[string]live.Summary
	stop chan struct{}
	done chan struct{}
}

func watchSummaries(rec *live.Recorder) *summaries {
	w := &summaries{byID: map[string]live.Summary{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			w.poll(rec)
			select {
			case <-w.stop:
				w.poll(rec)
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *summaries) poll(rec *live.Recorder) {
	got := rec.Summaries()
	w.mu.Lock()
	for _, s := range got {
		w.byID[s.ID] = s
	}
	w.mu.Unlock()
}

func (w *summaries) close() map[string]live.Summary {
	close(w.stop)
	<-w.done
	return w.byID
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
