package experiments

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// DistributedSmokeRow is one rank of the loopback-cluster smoke run: the
// rank's run shape plus its aggregate wire traffic (frames/bytes sent and
// received, cumulative flush latency), proving the TCP mesh carried the run
// and surfacing the per-peer wire counters the observability endpoint
// exports.
type DistributedSmokeRow struct {
	Rank         int
	Partitions   int
	TimestepsRun int
	Supersteps   int
	Wall         time.Duration
	Reached      int // TDSP-reached vertices owned by this rank
	Wire         []cluster.PeerWireStats
}

// DistributedSmokeOptions tunes the loopback smoke run's observability.
type DistributedSmokeOptions struct {
	// OnNode, when non-nil, sees every node before the run starts (tsbench
	// registers them with its obs registry so /metrics scrapes include the
	// per-peer wire counters).
	OnNode func(*cluster.Node)
	// Trace gives every rank its own enabled tracer, gathers the per-rank
	// shards over the mesh at rank 0 after the run, and returns the
	// clock-aligned merged trace plus its cluster skew decomposition.
	Trace bool
	// Watchdog, when non-nil, attaches a cluster-level stall watchdog to
	// every rank (parties are ranks; warnings are collected in the result).
	Watchdog *obs.WatchdogConfig
}

// DistributedSmokeResult is the full outcome of a loopback smoke run.
type DistributedSmokeResult struct {
	Rows []DistributedSmokeRow
	// Merged is the clock-aligned cross-rank trace and Shards the raw
	// per-rank inputs it was built from (nil unless Options.Trace was set).
	Merged *obs.MergedTrace
	Shards []obs.TraceShard
	// Skew decomposes imbalance into intra-rank compute skew vs inter-rank
	// barrier wait (zero value unless Options.Trace was set).
	Skew obs.ClusterSkewReport
	// Offsets is rank 0's clock view: Offsets[r] ≈ rank r's clock minus
	// rank 0's clock (nil unless Options.Trace was set).
	Offsets []time.Duration
	// Stalls are the watchdog warnings fired across all ranks, if any.
	Stalls []obs.StallWarning
}

// DistributedSmoke runs TDSP as a genuine nodes-way distributed execution
// inside one process: one cluster.Node per rank over loopback TCP, each
// owning a round-robin share of the partitions.
func DistributedSmoke(ds *Dataset, nodesN, k int, cfg bsp.Config, seed int64, opts DistributedSmokeOptions) (*DistributedSmokeResult, error) {
	if nodesN < 2 {
		nodesN = 2
	}
	parts, _, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	owner := make([]int32, k)
	for p := range owner {
		owner[p] = int32(p % nodesN)
	}

	// Loopback mesh on ephemeral ports.
	listeners := make([]net.Listener, nodesN)
	addrs := make([]string, nodesN)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tracers := make([]*obs.Tracer, nodesN)
	watchdogs := make([]*obs.Watchdog, nodesN)
	nodes := make([]*cluster.Node, nodesN)
	for i := range nodes {
		if opts.Trace {
			tracers[i] = obs.NewTracer(0)
			tracers[i].Enable()
		}
		if opts.Watchdog != nil {
			wcfg := *opts.Watchdog
			wcfg.Parties = nodesN
			wcfg.Tracer = tracers[i]
			if wcfg.Describe == nil {
				rank := i
				wcfg.Describe = func(party int) string {
					return fmt.Sprintf("rank %d (seen from rank %d)", party, rank)
				}
			}
			watchdogs[i] = obs.NewWatchdog(wcfg)
		}
		n, err := cluster.New(cluster.Config{
			Rank: i, Addrs: addrs, Listener: listeners[i], Owner: owner,
			Tracer: tracers[i], Watchdog: watchdogs[i],
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		if opts.OnNode != nil {
			opts.OnNode(n)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, wd := range watchdogs {
			if wd != nil {
				wd.Close()
			}
		}
	}()

	var startWG sync.WaitGroup
	startErrs := make([]error, nodesN)
	for i, n := range nodes {
		startWG.Add(1)
		go func(i int, n *cluster.Node) {
			defer startWG.Done()
			startErrs[i] = n.Start()
		}(i, n)
	}
	startWG.Wait()
	for i, err := range startErrs {
		if err != nil {
			return nil, fmt.Errorf("experiments: node %d start: %w", i, err)
		}
	}

	total := subgraph.TotalSubgraphs(parts)
	rows := make([]DistributedSmokeRow, nodesN)
	errs := make([]error, nodesN)
	var wg sync.WaitGroup
	for r := 0; r < nodesN; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var local []*subgraph.PartitionData
			for _, pd := range parts {
				if int(owner[pd.PID]) == r {
					local = append(local, pd)
				}
			}
			prog, err := newTDSP(ds, parts)
			if err != nil {
				errs[r] = err
				return
			}
			engine := bsp.NewEngineRemote(local, cfg, nodes[r])
			nodes[r].Bind(engine)
			wallStart := time.Now()
			res, err := core.RunWithEngine(&core.Job{
				Template:        ds.Template,
				Parts:           local,
				Source:          core.MemorySource{C: ds.Latencies},
				Program:         prog,
				Pattern:         core.SequentiallyDependent,
				Config:          cfg,
				Remote:          nodes[r],
				Coordinator:     nodes[r],
				GlobalSubgraphs: total,
				Tracer:          tracers[r],
			}, engine)
			if err != nil {
				errs[r] = err
				return
			}
			arr := prog.ArrivalsOf(0, local, ds.Template)
			reached := 0
			for _, pd := range local {
				for _, g := range pd.GlobalIdx {
					if !math.IsInf(arr[g], 1) {
						reached++
					}
				}
			}
			rows[r] = DistributedSmokeRow{
				Rank: r, Partitions: len(local),
				TimestepsRun: res.TimestepsRun, Supersteps: res.Supersteps,
				Wall: time.Since(wallStart), Reached: reached,
				Wire: nodes[r].WireStats(),
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: distributed smoke rank %d: %w", r, err)
		}
	}

	result := &DistributedSmokeResult{Rows: rows}
	for _, wd := range watchdogs {
		result.Stalls = append(result.Stalls, wd.Warnings()...)
	}
	if opts.Trace {
		// Non-zero ranks ship their shards first (non-blocking sends), then
		// rank 0 collects — exercising the same wire path a multi-process
		// deployment uses.
		for r := 1; r < nodesN; r++ {
			if _, err := nodes[r].GatherTraces(0); err != nil {
				return nil, fmt.Errorf("experiments: rank %d trace gather: %w", r, err)
			}
		}
		shards, err := nodes[0].GatherTraces(0)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace gather: %w", err)
		}
		merged := obs.MergeTraces(shards)
		result.Merged = merged
		result.Shards = shards
		result.Skew = *merged.ClusterSkew()
		result.Offsets = nodes[0].ClockOffsets()
	}
	return result, nil
}

// RenderDistributedSmoke writes the loopback-cluster smoke table.
func RenderDistributedSmoke(w io.Writer, rows []DistributedSmokeRow) {
	fmt.Fprintf(w, "== Distributed smoke: TDSP over a %d-node loopback TCP mesh ==\n", len(rows))
	fmt.Fprintf(w, "%5s %6s %6s %6s %8s %8s %11s %11s %11s\n",
		"rank", "parts", "steps", "sups", "reached", "wall", "sent", "recv", "flush")
	for _, r := range rows {
		var framesSent, bytesSent, framesRecv, bytesRecv int64
		var flush time.Duration
		for _, ws := range r.Wire {
			framesSent += ws.FramesSent
			bytesSent += ws.BytesSent
			framesRecv += ws.FramesRecv
			bytesRecv += ws.BytesRecv
			flush += ws.FlushTime
		}
		fmt.Fprintf(w, "%5d %6d %6d %6d %8d %8s %11s %11s %11s\n",
			r.Rank, r.Partitions, r.TimestepsRun, r.Supersteps, r.Reached,
			r.Wall.Round(time.Millisecond),
			fmt.Sprintf("%df/%dB", framesSent, bytesSent),
			fmt.Sprintf("%df/%dB", framesRecv, bytesRecv),
			flush.Round(time.Microsecond))
	}
}
