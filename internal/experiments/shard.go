package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
	"tsgraph/internal/shard"
	"tsgraph/internal/subgraph"
)

// ShardRow is one cell of the sharded-serving benchmark: closed-loop
// clients against a router over an in-process rank topology.
type ShardRow struct {
	// Ranks and Replicas define the topology: Ranks processes split into
	// Replicas groups, each holding a full dataset copy.
	Ranks, Replicas int
	// Groups is the resulting replica-group count (sweep parallelism).
	Groups      int
	Concurrency int
	Queries     int
	Elapsed     time.Duration
	QPS         float64
	P50, P99    time.Duration
	// Sweeps counts router scatter/gathers (TDSP class).
	Sweeps int64
}

// shardScale mirrors the serving benchmark's scale; the per-rank pack
// budget below keeps the dataset larger than any one rank's cache.
var shardScale = Scale{Name: "shard", RoadRows: 48, RoadCols: 48, Timesteps: 16, Seed: 42}

// shardCachePacks is each rank's resident-pack budget. The dataset packs
// into shardScale.Timesteps/shardPackLen = 4 pack-sets, so a budget of 2
// means no rank can hold the working set — aggregate throughput has to
// come from adding ranks, not from one hot cache.
const (
	shardCachePacks = 2
	shardPackLen    = 4
)

// ShardGrid is the (ranks, replicas) topology grid of the benchmark.
var ShardGrid = []struct{ Ranks, Replicas int }{
	{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4},
}

// ShardBench measures sharded-serving throughput scaling: one GoFS dataset
// on disk, a grid of in-process rank topologies over it, and the same
// hot-source closed-loop TDSP workload as the serving benchmark submitted
// through a router-backed server. Contrasts worth reading off the grid:
// (1,1) vs (2,2) vs (4,4) is replica-group scaling (more groups sweep
// concurrently); (2,1) vs (1,1) is the cost of meshing one sweep across
// two ranks; (4,2) holds group size at 2 while doubling groups.
func ShardBench(queriesPerCell, clients int, cfg bsp.Config, seed int64) ([]ShardRow, error) {
	ds, err := BuildRoad(shardScale)
	if err != nil {
		return nil, err
	}
	parts, a, err := buildParts(ds, 4, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "tsbench-shard-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := gofs.WriteDatasetOptions(dir, ds.Latencies, a, gofs.Options{
		Pack: shardPackLen, Bin: 2,
	}); err != nil {
		return nil, err
	}
	store, err := gofs.Open(dir)
	if err != nil {
		return nil, err
	}
	if queriesPerCell <= 0 {
		queriesPerCell = 256
	}
	if clients <= 0 {
		clients = 64
	}

	// The serving benchmark's workload: a pool of hot sources times
	// distinct targets, batch-compatible on one departure timestep.
	nv := ds.Template.NumVertices()
	pairs := make([][2]int64, queriesPerCell)
	for i := range pairs {
		si := ((i % serveSourcePool) * 97) % nv
		ti := (nv - 1 - (i*53)%nv)
		if ti == si {
			ti = (ti + 1) % nv
		}
		pairs[i] = [2]int64{
			int64(ds.Template.VertexID(si)),
			int64(ds.Template.VertexID(ti)),
		}
	}

	var rows []ShardRow
	for _, g := range ShardGrid {
		row, err := shardCell(ds, parts, a, store, cfg, pairs, g.Ranks, g.Replicas, clients)
		if err != nil {
			return nil, fmt.Errorf("shard cell ranks=%d replicas=%d: %w", g.Ranks, g.Replicas, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func shardCell(ds *Dataset, parts []*subgraph.PartitionData, a *partition.Assignment,
	store *gofs.Store, cfg bsp.Config, pairs [][2]int64, ranksN, replicasN, clients int) (ShardRow, error) {
	layout := shard.Layout{Replicas: replicasN}
	rpcLns := make([]net.Listener, ranksN)
	meshLns := make([]net.Listener, ranksN)
	for i := 0; i < ranksN; i++ {
		var err error
		if rpcLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return ShardRow{}, err
		}
		if meshLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return ShardRow{}, err
		}
		layout.Ranks = append(layout.Ranks, rpcLns[i].Addr().String())
		layout.Mesh = append(layout.Mesh, meshLns[i].Addr().String())
	}
	ranks := make([]*shard.Rank, ranksN)
	for i := 0; i < ranksN; i++ {
		// Each rank gets its own bounded cache, restricted to the
		// partitions it owns: the sharded deployment's memory model.
		cache := gofs.NewInstanceCache(store, shardCachePacks)
		cache.Restrict(shard.LocalParts(layout, i, a.K))
		r, err := shard.NewRank(shard.RankConfig{
			Layout: layout, Rank: i,
			Resident: serve.Resident{
				Template: ds.Template, Parts: parts, Source: cache,
				Delta: ds.Delta, WeightAttr: gen.AttrLatency,
				Cores: cfg.CoresPerHost,
			},
			Assign: a,
			Resilience: &cluster.Resilience{
				BackoffBase: 2 * time.Millisecond, BackoffCap: 100 * time.Millisecond,
				RecoveryWindow: 5 * time.Second,
			},
			Listener: rpcLns[i], MeshListener: meshLns[i],
		})
		if err != nil {
			return ShardRow{}, err
		}
		ranks[i] = r
		defer r.Close()
	}
	var bootWG sync.WaitGroup
	bootErrs := make([]error, ranksN)
	for i, r := range ranks {
		bootWG.Add(1)
		go func(i int, r *shard.Rank) {
			defer bootWG.Done()
			bootErrs[i] = r.Start()
		}(i, r)
	}
	bootWG.Wait()
	for _, err := range bootErrs {
		if err != nil {
			return ShardRow{}, err
		}
	}
	router, err := shard.NewRouter(shard.RouterConfig{
		Layout: layout, Template: ds.Template, Assign: a,
		Timeout: 2 * time.Minute,
	})
	if err != nil {
		return ShardRow{}, err
	}
	defer router.Close()
	s, err := serve.New(serve.Options{
		Template: ds.Template, Parts: parts,
		Source:     shard.HeadSource(store),
		Delta:      ds.Delta,
		WeightAttr: gen.AttrLatency,
		Cores:      cfg.CoresPerHost,
		MaxBatch:   64, BatchLinger: 2 * time.Millisecond,
		QueueCap: len(pairs) + clients,
		// One worker per replica group, so group-level sweep parallelism
		// is reachable (workers beyond the group count just contend).
		Workers: max(2, layout.NumGroups()),
		// Cache off: every query is a routed sweep.
		ResultCacheSize: 0,
		DefaultDeadline: 10 * time.Minute,
		Sweeper:         router,
	})
	if err != nil {
		return ShardRow{}, err
	}
	defer s.Close()

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    = make([]time.Duration, 0, len(pairs))
		execErr error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				q := serve.Query{Kind: "tdsp", Source: pairs[i][0], Target: pairs[i][1]}
				t0 := time.Now()
				_, err := s.Submit(context.Background(), q)
				d := time.Since(t0)
				mu.Lock()
				if err != nil && execErr == nil {
					execErr = err
				}
				lats = append(lats, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if execErr != nil {
		return ShardRow{}, execErr
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return ShardRow{
		Ranks: ranksN, Replicas: replicasN, Groups: layout.NumGroups(),
		Concurrency: clients,
		Queries:     len(pairs),
		Elapsed:     elapsed,
		QPS:         float64(len(pairs)) / elapsed.Seconds(),
		P50:         q(0.50),
		P99:         q(0.99),
		Sweeps:      s.Metrics().Sweeps(serve.ClassTDSP),
	}, nil
}

// RenderShardBench writes the sharded-serving benchmark as text.
func RenderShardBench(w io.Writer, rows []ShardRow) {
	fmt.Fprintf(w, "== Extension: sharded serving (tsserve -router) — closed-loop TDSP clients over rank topologies ==\n")
	fmt.Fprintf(w, "%-6s %-9s %-7s %5s %8s %10s %9s %10s %10s %7s\n",
		"ranks", "replicas", "groups", "conc", "queries", "elapsed", "qps", "p50", "p99", "sweeps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-9d %-7d %5d %8d %10s %9.1f %10s %10s %7d\n",
			r.Ranks, r.Replicas, r.Groups, r.Concurrency, r.Queries,
			r.Elapsed.Round(time.Millisecond), r.QPS,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Sweeps)
	}
}
