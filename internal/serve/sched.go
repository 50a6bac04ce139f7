package serve

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
)

// classQueue is the bounded FIFO of one query class. Workers pull the head
// together with every queued request sharing its batch key, so compatible
// queries that pile up behind a busy worker leave in one micro-batch.
type classQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*request
	closed bool
}

func newClassQueue() *classQueue {
	q := &classQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *classQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *classQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// popBatch blocks for work, then returns the oldest request plus every
// queued request with the same batch key (up to max). Requests whose
// deadline already passed while queued come back in expired instead.
// A nil batch means the queue is closed and empty.
func (q *classQueue) popBatch(max int) (batch, expired []*request) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			return batch, expired // closed and drained
		}
		now := time.Now()
		keep := q.items[:0]
		key := ""
		for _, r := range q.items {
			switch {
			case !r.deadline.IsZero() && r.deadline.Before(now):
				expired = append(expired, r)
			case key == "":
				key = r.batchKey
				batch = append(batch, r)
			case r.batchKey == key && len(batch) < max:
				batch = append(batch, r)
			default:
				keep = append(keep, r)
			}
		}
		// Zero the tail so dropped requests don't pin memory.
		for i := len(keep); i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = keep
		if len(batch) == 0 {
			continue // everything in the queue had expired; wait again
		}
		if len(q.items) > 0 {
			// Work remains for other workers.
			q.cond.Signal()
		}
		return batch, expired
	}
}

// takeCompatible grabs up to max queued requests matching key without
// blocking; the linger pass uses it to top up a short batch.
func (q *classQueue) takeCompatible(key string, max int) []*request {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 || len(q.items) == 0 {
		return nil
	}
	var got []*request
	keep := q.items[:0]
	for _, r := range q.items {
		if r.batchKey == key && len(got) < max {
			got = append(got, r)
		} else {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = keep
	return got
}

// worker is the per-class service loop: pull a micro-batch, optionally
// linger to let more compatible queries arrive, execute one sweep, fan the
// answers back out.
func (s *Server) worker(class Class) {
	defer s.workerWG.Done()
	q := s.queues[class]
	for {
		batch, expired := q.popBatch(s.opt.MaxBatch)
		for _, r := range expired {
			r.err = &RejectError{Reason: "deadline exceeded while queued", RetryAfter: s.estimateWait(class)}
			close(r.done)
		}
		if batch == nil {
			return
		}
		if s.opt.BatchLinger > 0 && len(batch) < s.opt.MaxBatch {
			time.Sleep(s.opt.BatchLinger)
			batch = append(batch, q.takeCompatible(batch[0].batchKey, s.opt.MaxBatch-len(batch))...)
		}
		s.executeBatch(class, batch)
	}
}

// executeBatch answers a whole micro-batch with one TI-BSP job and
// publishes per-request answers (or the shared error).
func (s *Server) executeBatch(class Class, batch []*request) {
	start := time.Now()
	for _, r := range batch {
		// Queue time: enqueue (normalize) to worker pickup, including any
		// linger spent topping the batch up.
		r.live.Stage(live.StageQueue, r.enq, start.Sub(r.enq))
	}
	var err error
	switch class {
	case ClassTDSP:
		err = s.execTDSP(batch)
	case ClassTopN:
		err = s.execTopN(batch)
	case ClassMeme:
		err = s.execMeme(batch)
	}
	dur := time.Since(start)
	seq := s.metrics.observeBatch(class, len(batch), dur)
	if tr := s.opt.Tracer; tr.Active() {
		tr.RecordSpan(obs.SpanBatch, -1, int32(class), -1, int64(len(batch)), start, dur)
	}
	s.logBatch(class, seq, batch, dur, err)
	for _, r := range batch {
		r.live.Stage(live.StageSweep, start, dur)
		r.live.SetBatch(seq, len(batch))
		if err != nil {
			r.err = err
		}
		close(r.done)
	}
}

// logBatch emits the per-batch structured record with batch_seq and the
// member query_ids, so a flight-recorder trace joins against
// -log-format json output on either field. Successes log at debug,
// failed sweeps at warn; id formatting is skipped entirely when the
// record would be discarded.
func (s *Server) logBatch(class Class, seq int64, batch []*request, dur time.Duration, err error) {
	level := slog.LevelDebug
	if err != nil {
		level = slog.LevelWarn
	}
	l := slog.Default()
	ctx := context.Background()
	if !l.Enabled(ctx, level) {
		return
	}
	ids := make([]string, 0, len(batch))
	for _, r := range batch {
		if id := r.live.IDString(); id != "" {
			ids = append(ids, id)
		}
	}
	attrs := []any{
		"class", class.String(),
		"batch_seq", seq,
		"batch_size", len(batch),
		"dur_ms", float64(dur) / float64(time.Millisecond),
		"query_ids", ids,
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	l.Log(ctx, level, "batch", attrs...)
}

// execTDSP coalesces every request of the batch (all sharing one departure
// timestep) into a single multi-source sweep: distinct sources become batch
// queries, targets are merged per source, and each request reads its answer
// back out of the shared program state.
func (s *Server) execTDSP(batch []*request) error {
	depart := batch[0].depart
	targetsOf := make(map[int]map[int]bool)
	for _, r := range batch {
		ts := targetsOf[r.srcIdx]
		if ts == nil {
			ts = make(map[int]bool)
			targetsOf[r.srcIdx] = ts
		}
		ts[r.tgtIdx] = true
	}
	sources := make([]int, 0, len(targetsOf))
	for src := range targetsOf {
		sources = append(sources, src)
	}
	sort.Ints(sources)
	siOf := make(map[int]int, len(sources))
	queries := make([]algorithms.BatchQuery, len(sources))
	for i, src := range sources {
		siOf[src] = i
		targets := make([]int, 0, len(targetsOf[src]))
		for tgt := range targetsOf[src] {
			targets = append(targets, tgt)
		}
		sort.Ints(targets)
		queries[i] = algorithms.BatchQuery{Source: src, Targets: targets}
	}
	lookup, err := s.sweeper.SweepTDSP(context.Background(), batch[0].watermark, depart, queries)
	if err != nil {
		return err
	}
	for _, r := range batch {
		arr, at, ok := lookup(siOf[r.srcIdx], r.tgtIdx)
		a := &TDSPAnswer{Source: r.sourceID, Target: r.targetID, Depart: depart}
		if ok {
			a.Reached, a.Arrival, a.Timestep = true, arr, at
		} else {
			a.Timestep = -1
		}
		r.ans = &Answer{Kind: "tdsp", Watermark: r.watermark, TDSP: a}
	}
	return nil
}

// execTopN answers a batch of identical windowed rankings (the top-N batch
// key is the full query key) with one windowed run shared by all.
func (s *Server) execTopN(batch []*request) error {
	r0 := batch[0]
	out, err := s.sweeper.SweepTopN(context.Background(), r0.watermark, r0.attr, r0.n, r0.from, r0.count)
	if err != nil {
		return err
	}
	ans := &Answer{Kind: "topn", Watermark: r0.watermark, TopN: &TopNAnswer{
		Attr: r0.attr, N: r0.n, From: r0.from, Count: len(out), Steps: out,
	}}
	for _, r := range batch {
		r.ans = ans
	}
	return nil
}

// execMeme runs the spread of one tag once and answers every probe of that
// tag from the resulting coloring.
func (s *Server) execMeme(batch []*request) error {
	probes := make([]int, 0, len(batch))
	posOf := make(map[int]int)
	for _, r := range batch {
		if r.probeIdx >= 0 {
			if _, ok := posOf[r.probeIdx]; !ok {
				posOf[r.probeIdx] = 0
				probes = append(probes, r.probeIdx)
			}
		}
	}
	sort.Ints(probes)
	for i, v := range probes {
		posOf[v] = i
	}
	sp, err := s.sweeper.SweepMeme(context.Background(), batch[0].watermark, batch[0].tag, probes)
	if err != nil {
		return err
	}
	for _, r := range batch {
		a := &MemeAnswer{Tag: r.tag, Colored: sp.Colored}
		if r.probeIdx >= 0 {
			at := sp.ProbeAt[posOf[r.probeIdx]]
			a.Vertex, a.ColoredAt = r.probeID, &at
		}
		r.ans = &Answer{Kind: "meme", Watermark: r.watermark, Meme: a}
	}
	return nil
}
