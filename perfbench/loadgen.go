package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span id to the server-side handler
// wrapper, which records it as the handler span's parent.
const spanHeader = "X-Bench-Span"

// op is one scheduled request. prepare runs when the request is sent, so
// a body may depend on what earlier requests returned (the newest
// watermark).
type op struct {
	due     time.Duration // offset from the phase start
	path    string
	prepare func() prepared
}

// prepared is a request ready to send and the check of its answer.
type prepared struct {
	body  []byte
	check checker
	fresh bool // reads timesteps appended during the run
}

// checker judges one response body; it returns an error for a wrong
// answer.
type checker func(body []byte) error

// outcome is what happened to one op.
type outcome struct {
	due, emit, sent, done time.Time
	spanID                int64
	queryID               string
	wasSent               bool // false when the phase stopped before sending it
	failed                bool // transport error, non-200, or wrong answer
	wrong                 string
	fresh                 bool
	body                  string
}

func (o *outcome) latency() time.Duration { return dueLatency(o.due, o.done) }

// poissonOffsets draws the due offsets of an open-loop Poisson arrival
// process at rate per second over d.
func poissonOffsets(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// client is a keep-alive HTTP client limited to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// runOpenLoop sends ops at their due times from conns workers, each
// holding one keep-alive connection. When a request's wait for a free
// connection passes abortWait the phase stops sending (the server has
// stopped keeping up); unsent ops are reported as not sent and failed. Spans are recorded
// when log is active.
func runOpenLoop(cl *http.Client, base string, ops []op, conns int, log *spanLog, abortWait time.Duration) []outcome {
	out := make([]outcome, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				if aborted.Load() {
					continue
				}
				if abortWait > 0 && time.Since(o.due) > abortWait {
					aborted.Store(true)
					continue
				}
				send(cl, base, ops[i], o, log)
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if aborted.Load() {
			break
		}
		out[i].due = due
		out[i].emit = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// send performs one request and judges the response.
func send(cl *http.Client, base string, p op, o *outcome, log *spanLog) {
	pr := p.prepare()
	o.fresh, o.body = pr.fresh, string(pr.body)
	req, err := http.NewRequest(http.MethodPost, base+p.path, bytes.NewReader(pr.body))
	if err != nil {
		o.failed, o.wrong = true, err.Error()
		return
	}
	if log.active() {
		o.spanID = log.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(o.spanID, 10))
	}
	o.wasSent = true
	o.sent = time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		o.done = time.Now()
		o.failed, o.wrong = true, "transport: "+err.Error()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.queryID = resp.Header.Get("X-Tsserve-Query-Id")
	if log.active() {
		log.add(span{Layer: "client", ID: o.spanID, Start: o.sent, End: o.done})
		log.record("request", 0, o.due, o.done)
	}
	switch {
	case err != nil:
		o.failed, o.wrong = true, "reading body: "+err.Error()
	case resp.StatusCode != http.StatusOK:
		// A refusal is a failure, not a wrong answer.
		o.failed = true
	default:
		if err := pr.check(data); err != nil {
			o.failed, o.wrong = true, fmt.Sprintf("%s %s: %v", p.path, pr.body, err)
		}
	}
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	name             string
	sent, ok, failed int
	wrong            []string
	lat, late        []time.Duration // latency from due, generator lateness
	notSent          int
	repeats, fresh   int // ops that repeat an earlier one / read appended timesteps
	sentOutcomes     []*outcome
	offeredRate      float64
}

func summarize(name string, outs []outcome, rate float64) *phaseStats {
	ps := &phaseStats{name: name, offeredRate: rate}
	for i := range outs {
		o := &outs[i]
		if !o.wasSent {
			ps.notSent++
			continue
		}
		ps.sent++
		ps.sentOutcomes = append(ps.sentOutcomes, o)
		ps.late = append(ps.late, o.emit.Sub(o.due))
		if o.wrong != "" {
			ps.wrong = append(ps.wrong, o.wrong)
		}
		if o.failed {
			ps.failed++
			continue
		}
		ps.ok++
		ps.lat = append(ps.lat, o.latency())
	}
	return ps
}

// latencies returns the latency sample used for percentiles: a
// failed request counts as missing any limit, so it enters as +inf.
func (ps *phaseStats) latencies() []time.Duration {
	out := append([]time.Duration(nil), ps.lat...)
	for i := 0; i < ps.failed; i++ {
		out = append(out, time.Duration(1<<62))
	}
	return sortedCopy(out)
}
