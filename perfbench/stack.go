package main

import (
	"net"
	"net/http"
	"strconv"
	"time"

	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/ingest"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
)

// stack is one running serving deployment wired as cmd/tsserve wires it
// by default: an enabled tracer, a live recorder, the registry, the HTTP
// mux, an instance cache and, on ingest-live, an ingester.
type stack struct {
	st      *stored
	srv     *serve.Server
	http    *http.Server
	url     string
	tracer  *obs.Tracer
	cache   *gofs.InstanceCache
	ing     *ingest.Ingester
	closers []func()
}

// stackOpts selects the deployment. log, when non-nil, installs the
// benchmark's pass-through wrappers (they record only while it is on).
type stackOpts struct {
	cachePacks int
	ingest     bool
	log        *spanLog
}

// tracedSource records a gofs.load span around every instance load.
type tracedSource struct {
	src core.InstanceSource
	log *spanLog
}

func (t *tracedSource) Timesteps() int { return t.src.Timesteps() }

func (t *tracedSource) Load(ts int) (*graph.Instance, error) {
	if !t.log.active() {
		return t.src.Load(ts)
	}
	start := time.Now()
	ins, err := t.src.Load(ts)
	t.log.record("gofs.load", 0, start, time.Now())
	return ins, err
}

// Delta passes change summaries through, as the wrapped cache reports them.
func (t *tracedSource) Delta(ts int) *graph.Delta {
	if ds, ok := t.src.(core.DeltaSource); ok {
		return ds.Delta(ts)
	}
	return nil
}

// tracedHandler records a span around a handler, parented to the client
// span named in the request header.
func tracedHandler(h http.Handler, log *spanLog, layer string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !log.active() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		log.record(layer, parent, start, time.Now())
	})
}

func wrapSource(src core.InstanceSource, log *spanLog) core.InstanceSource {
	if log == nil {
		return src
	}
	return &tracedSource{src: src, log: log}
}

// startStack brings a deployment up over a stored dataset and returns
// once it listens; the time it takes is the serve readiness.
func startStack(ds *dataset, st *stored, o stackOpts, times *setupTimes) (*stack, error) {
	s := &stack{st: st}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	tmpl := st.store.Template()
	t0 := time.Now()
	var ing *ingest.Ingester
	if o.ingest {
		var err error
		if ing, err = ingest.Open(st.store, ingest.Options{RetainBytes: 64 << 20}); err != nil {
			return nil, err
		}
		s.ing = ing
		s.closers = append(s.closers, func() { ing.Close() })
	}
	s.tracer = obs.NewTracer(0)
	s.tracer.Enable()
	reg := obs.NewRegistry(s.tracer)
	reg.Register(obs.ReadBuildInfo())
	recorder := live.NewRecorder(live.Config{
		Classes: serve.ClassNames(), SlowThreshold: time.Second,
		HeadSampleRate: 0.01, RetainCap: 64, SLOErrorBudget: 0.01,
	})
	opt := serve.Options{
		Template: tmpl, Parts: st.parts,
		Delta: ds.delta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
		Cores: cores, MaxBatch: 64, QueueCap: 256, Workers: 2,
		ResultCacheSize: 1024, DefaultDeadline: 30 * time.Second,
		Tracer: s.tracer, Live: recorder,
	}
	s.cache = gofs.NewInstanceCache(st.store, o.cachePacks)
	opt.Source = s.cache
	opt.InstanceStats = s.cache.Stats
	cache := s.cache
	opt.ClassSource = func(class string) core.InstanceSource {
		return wrapSource(cache.ClassSource(class), o.log)
	}
	t1 := time.Now()
	times.ready += t1.Sub(t0)
	srv, err := serve.New(opt)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	s.closers = append(s.closers, func() { srv.Close() })
	reg.Register(srv)
	reg.Register(st.store.Telemetry())
	if ing != nil {
		reg.Register(ing.Metrics())
	}
	reg.Register(diag.NewRuntimeSampler())
	mux := serve.NewMux(srv, reg)
	var handler http.Handler = mux
	if ing != nil {
		mux.Handle("/ingest", ing.Handler())
	}
	if o.log != nil {
		outer := http.NewServeMux()
		outer.Handle("/query", tracedHandler(mux, o.log, "serve.handler"))
		if ing != nil {
			outer.Handle("/ingest", tracedHandler(ing.Handler(), o.log, "ingest.handler"))
		}
		outer.Handle("/", mux)
		handler = outer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.http.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		_ = serve.ShutdownHTTP(s.http, 5*time.Second)
		<-done
	})
	s.url = "http://" + ln.Addr().String()
	times.ready += time.Since(t1)
	ok = true
	return s, nil
}

// close tears the deployment down in reverse start order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}
