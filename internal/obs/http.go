package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// Timeouts of every HTTP server the daemons run (NewHTTPServer). A slow or
// stalled client can hold a connection only this long while sending a
// request or idling between requests. There is deliberately no write
// timeout: /debug/pprof/profile streams for its seconds parameter.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = time.Minute
	httpIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns a server for h with the daemons' read and idle
// timeouts set.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// Endpoint is one extra debug endpoint a daemon contributes to the shared
// debug mux: the serving layer's flight recorder, the diagnostic-bundle
// handler, and so on. Keeping the construction here — rather than each cmd
// hand-assembling its own mux — is what guarantees tsrun/tsbench's -obs
// server and tsserve expose the same endpoint set.
type Endpoint struct {
	// Pattern is the mux pattern (e.g. "/debug/flight").
	Pattern string
	// Handler serves it.
	Handler http.Handler
	// Index, when non-empty, is the one-line description shown on the
	// index page ("" keeps the endpoint off the index).
	Index string
}

// NewHandler builds the debug HTTP handler for a registry:
//
//	/metrics            Prometheus text-format scrape
//	/metrics.json       JSON snapshot of the same samples
//	/debug/trace        Chrome trace_event JSON of the tracer's rings
//	/debug/trace.shard  this rank's TraceShard as JSON (cluster-merge pull)
//	/debug/skew         human-readable SkewReport
//	/debug/pprof/*      the standard runtime profiles
//
// plus any extra endpoints (flight recorder, diagnostic bundles). The
// handler is safe to serve while a run is executing; exports are
// best-effort snapshots (see Tracer).
func NewHandler(reg *Registry, extras ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="tsgraph-trace.json"`)
		_ = WriteChromeTrace(w, reg.Tracer())
	})
	mux.HandleFunc("/debug/trace.shard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(reg.Shard())
	})
	mux.HandleFunc("/debug/skew", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, reg.Tracer().Skew())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	type indexEntry struct{ pattern, desc string }
	entries := []indexEntry{
		{"/metrics", "Prometheus text format"},
		{"/metrics.json", "JSON snapshot"},
		{"/debug/trace", "Chrome trace_event JSON; load in Perfetto"},
		{"/debug/trace.shard", "this rank's trace shard for cluster merge"},
		{"/debug/skew", "straggler report"},
		{"/debug/pprof/", "runtime profiles"},
	}
	for _, e := range extras {
		if e.Handler == nil {
			continue
		}
		mux.Handle(e.Pattern, e.Handler)
		if e.Index != "" {
			entries = append(entries, indexEntry{e.Pattern, e.Index})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].pattern < entries[j].pattern })

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><body><h1>tsgraph observability</h1><ul>\n")
		for _, e := range entries {
			fmt.Fprintf(w, `<li><a href="%s">%s</a> (%s)</li>`+"\n", e.pattern, e.pattern, e.desc)
		}
		fmt.Fprint(w, "</ul></body></html>")
	})
	return mux
}

// Serve starts the debug endpoint on addr (e.g. ":9188" or
// "127.0.0.1:0") in a background goroutine and returns the bound address.
// The returned server can be Closed by the caller; serving errors after a
// successful bind are discarded (the endpoint is best-effort tooling).
func Serve(addr string, reg *Registry, extras ...Endpoint) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := NewHTTPServer(NewHandler(reg, extras...))
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
