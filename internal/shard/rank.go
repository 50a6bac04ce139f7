package shard

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/cluster"
	"tsgraph/internal/obs"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
	"tsgraph/internal/subgraph"
)

// RankConfig configures one serving rank.
type RankConfig struct {
	// Layout is the shared deployment topology; Rank is this process's
	// index into it.
	Layout Layout
	Rank   int

	// Resident feeds the rank's sweep executor (serve.NewSweeper).
	// Template and Parts describe the FULL dataset; only instance data is
	// sharded: restrict Source with
	// gofs.InstanceCache.Restrict(LocalParts(...)) so non-owned columns are
	// never decoded.
	serve.Resident
	// Assign maps template vertex -> partition.
	Assign *partition.Assignment

	// Resilience tunes the group mesh's retry/reconnect/replay (nil keeps
	// the fail-fast transport; serving groups should set one).
	Resilience *cluster.Resilience

	// Listener accepts the router's RPC connections (required).
	Listener net.Listener
	// MeshListener is this rank's cluster mesh listener; required when
	// the rank's group has more than one member.
	MeshListener net.Listener
}

// LocalParts returns the partition numbers a rank owns under a layout: the
// member-local slice of the deterministic p % members assignment.
func LocalParts(l Layout, rank, numParts int) []int {
	_, member, members := l.GroupOf(rank)
	if members == nil {
		return nil
	}
	var owned []int
	for p := 0; p < numParts; p++ {
		if OwnerMember(p, len(members)) == member {
			owned = append(owned, p)
		}
	}
	return owned
}

// Rank is one serving rank: it answers the router's scattered sweeps over
// the partitions it owns, joining its replica group's cluster mesh for
// cross-partition TDSP and meme sweeps.
type Rank struct {
	cfg     RankConfig
	member  int
	members int
	node    *cluster.Node // nil for single-member groups
	sweeper serve.Sweeper

	ln      net.Listener
	sweepMu sync.Mutex
	connMu  sync.Mutex
	conns   map[net.Conn]bool
	wg      sync.WaitGroup
	closed  atomic.Bool

	sweeps  [4]atomic.Int64 // indexed by request kind
	sweepNS atomic.Int64
}

// NewRank validates the topology and builds the rank. Start connects the
// mesh and begins serving.
func NewRank(cfg RankConfig) (*Rank, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Layout.NumRanks() {
		return nil, fmt.Errorf("shard: rank %d outside layout of %d", cfg.Rank, cfg.Layout.NumRanks())
	}
	if cfg.Template == nil || len(cfg.Parts) == 0 || cfg.Assign == nil || cfg.Source == nil {
		return nil, fmt.Errorf("shard: rank needs template, parts, assignment, and source")
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("shard: rank needs an RPC listener")
	}
	_, member, ranks := cfg.Layout.GroupOf(cfg.Rank)
	r := &Rank{
		cfg:     cfg,
		member:  member,
		members: len(ranks),
		ln:      cfg.Listener,
		conns:   make(map[net.Conn]bool),
	}
	var local []*subgraph.PartitionData
	for _, pd := range cfg.Parts {
		if OwnerMember(pd.PID, len(ranks)) == member {
			local = append(local, pd)
		}
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("shard: rank %d owns no partition (group of %d members, %d partitions)", cfg.Rank, len(ranks), len(cfg.Parts))
	}
	var mesh algorithms.MeshNode // an untyped nil without a group mesh
	if len(ranks) > 1 {
		if cfg.MeshListener == nil {
			return nil, fmt.Errorf("shard: rank %d needs a mesh listener (group of %d)", cfg.Rank, len(ranks))
		}
		owner := make([]int32, len(cfg.Parts))
		for p := range owner {
			owner[p] = int32(OwnerMember(p, len(ranks)))
		}
		addrs := make([]string, len(ranks))
		for i, gr := range ranks {
			addrs[i] = cfg.Layout.Mesh[gr]
		}
		node, err := cluster.New(cluster.Config{
			Rank:       member,
			Addrs:      addrs,
			Listener:   cfg.MeshListener,
			Owner:      owner,
			Tracer:     cfg.Tracer,
			Resilience: cfg.Resilience,
		})
		if err != nil {
			return nil, err
		}
		r.node, mesh = node, node
	}
	r.sweeper = serve.NewSweeper(cfg.Resident, local, mesh)
	return r, nil
}

// Node returns the rank's mesh node for metrics registration (nil when the
// group has a single member).
func (r *Rank) Node() *cluster.Node { return r.node }

// Addr returns the RPC listen address.
func (r *Rank) Addr() net.Addr { return r.ln.Addr() }

// Start connects the group mesh (blocking until every member is up, when
// the group has one) and then serves RPCs in the background.
func (r *Rank) Start() error {
	if r.node != nil {
		if err := r.node.Start(); err != nil {
			return err
		}
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return nil
}

// Close stops serving: the listener and every open connection close, the
// mesh node shuts down, and in-flight handlers are waited out.
func (r *Rank) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	r.ln.Close()
	r.connMu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.connMu.Unlock()
	if r.node != nil {
		r.node.Close()
	}
	r.wg.Wait()
	return nil
}

func (r *Rank) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.connMu.Lock()
		if r.closed.Load() {
			r.connMu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = true
		r.connMu.Unlock()
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

func (r *Rank) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.connMu.Lock()
		delete(r.conns, conn)
		r.connMu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := r.handle(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handle executes one sweep. Sweeps are serialized per rank: the engine
// and the mesh node carry per-sweep state, and the router never pipelines
// requests into one group anyway.
func (r *Rank) handle(req *Request) *Response {
	resp := &Response{ID: req.ID, Rank: r.cfg.Rank}
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	start := time.Now()
	var err error
	switch req.Kind {
	case reqTDSP:
		err = r.tdsp(req, resp)
	case reqTopN:
		err = r.topn(req, resp)
	case reqMeme:
		err = r.meme(req, resp)
	default:
		err = fmt.Errorf("shard: unknown request kind %d", req.Kind)
	}
	dur := time.Since(start)
	resp.SweepNS = dur.Nanoseconds()
	if req.Kind >= 1 && req.Kind < len(r.sweeps) {
		r.sweeps[req.Kind].Add(1)
	}
	r.sweepNS.Add(dur.Nanoseconds())
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// ownsVertex reports whether this rank is authoritative for a template
// vertex (its partition's instance data lives here).
func (r *Rank) ownsVertex(v int) bool {
	return OwnerMember(int(r.cfg.Assign.Parts[v]), r.members) == r.member
}

// tdsp reports the arrivals at the targets this rank owns.
func (r *Rank) tdsp(req *Request, resp *Response) error {
	lookup, err := r.sweeper.SweepTDSP(context.Background(), req.WM, req.Depart, req.Queries)
	if err != nil {
		return err
	}
	for si, q := range req.Queries {
		for _, tgt := range q.Targets {
			if !r.ownsVertex(tgt) {
				continue
			}
			arr, at, ok := lookup(si, tgt)
			resp.Arrivals = append(resp.Arrivals, Arrival{
				SI: int32(si), Target: int32(tgt), Arr: arr, At: int32(at), Reached: ok,
			})
		}
	}
	return nil
}

// topn reports the per-step top-N over the partitions this rank owns.
func (r *Rank) topn(req *Request, resp *Response) (err error) {
	resp.Steps, err = r.sweeper.SweepTopN(context.Background(), req.WM, req.Attr, req.N, req.From, req.Count)
	return err
}

// meme reports the colored count over the partitions this rank owns and
// the probes whose vertices it owns.
func (r *Rank) meme(req *Request, resp *Response) error {
	probes := make([]int, len(req.Probes))
	for i, v := range req.Probes {
		probes[i] = int(v)
	}
	sp, err := r.sweeper.SweepMeme(context.Background(), req.WM, req.Tag, probes)
	if err != nil {
		return err
	}
	// Outside its own partitions a member's coloring is all -1, so the
	// executor's colored count is exactly the owned one and the group
	// total is the plain sum.
	resp.Colored = sp.Colored
	resp.ProbeAt = make([]int32, len(probes))
	for i, v := range probes {
		if r.ownsVertex(v) {
			resp.ProbeAt[i] = int32(sp.ProbeAt[i])
		} else {
			resp.ProbeAt[i] = probeNotOwned
		}
	}
	return nil
}

// CollectObs exports the rank's sweep counters.
func (r *Rank) CollectObs(emit func(obs.Sample)) {
	rank := []obs.Label{{Key: "rank", Value: fmt.Sprint(r.cfg.Rank)}}
	kinds := [4]string{"", "tdsp", "topn", "meme"}
	for k := 1; k < len(r.sweeps); k++ {
		emit(obs.Sample{
			Name: "tsshard_rank_sweeps_total", Kind: "counter",
			Help:   "Sweeps executed by this rank, by query class.",
			Labels: append([]obs.Label{{Key: "class", Value: kinds[k]}}, rank...),
			Value:  float64(r.sweeps[k].Load()),
		})
	}
	emit(obs.Sample{
		Name: "tsshard_rank_sweep_seconds_total", Kind: "counter",
		Help:   "Wall-clock seconds this rank spent executing sweeps.",
		Labels: rank,
		Value:  float64(r.sweepNS.Load()) / 1e9,
	})
}
