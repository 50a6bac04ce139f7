package cluster

import (
	"encoding/gob"
	"math"
	"net"
	"sync"
	"testing"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

func init() {
	gob.Register(map[string]int{}) // test payloads
}

// mesh spins up n nodes on ephemeral localhost ports and returns them
// started (full mesh connected).
func mesh(tb testing.TB, n int, owner []int32) []*Node {
	tb.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(Config{Rank: i, Addrs: addrs, Listener: listeners[i], Owner: owner})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = node
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *Node) {
			defer wg.Done()
			errs[i] = node.Start()
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("node %d start: %v", i, err)
		}
	}
	tb.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

// distFixture builds a partitioned time-series dataset shared by the
// distributed tests.
type distFixture struct {
	tmpl  *graph.Template
	coll  *graph.Collection
	parts []*subgraph.PartitionData
	owner []int32
}

func newDistFixture(tb testing.TB, k int) *distFixture {
	tb.Helper()
	tmpl := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 9})
	coll, err := gen.RandomLatencies(tmpl, gen.LatencyConfig{
		Timesteps: 12, T0: 0, Delta: 20, Min: 1, Max: 30, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(tmpl, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(tmpl, a)
	if err != nil {
		tb.Fatal(err)
	}
	// One partition per node.
	owner := make([]int32, k)
	for i := range owner {
		owner[i] = int32(i)
	}
	return &distFixture{tmpl: tmpl, coll: coll, parts: parts, owner: owner}
}

// newTDSP builds the fixtures' single-source TDSP program (source 0, a
// batch of one query without targets) over parts, which are every
// partition; a rank's job runs its own share of them.
func newTDSP(tb testing.TB, parts []*subgraph.PartitionData) *algorithms.BatchTDSPProgram {
	tb.Helper()
	prog, err := algorithms.NewBatchTDSP(parts, []algorithms.BatchQuery{{Source: 0}}, 0, 20, gen.AttrLatency)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// runDistributedTDSP runs TDSP with one node per partition and returns the
// merged template-indexed arrivals.
func runDistributedTDSP(tb testing.TB, f *distFixture, nodes []*Node) []float64 {
	tb.Helper()
	k := len(nodes)
	merged := make([]float64, f.tmpl.NumVertices())
	for i := range merged {
		merged[i] = algorithms.Inf
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, k)
	total := subgraph.TotalSubgraphs(f.parts)
	for r := 0; r < k; r++ {
		prog := newTDSP(tb, f.parts)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := f.parts[r : r+1]
			engine := bsp.NewEngineRemote(local, bsp.Config{}, nodes[r])
			nodes[r].Bind(engine)
			_, err := core.RunWithEngine(&core.Job{
				Template:        f.tmpl,
				Parts:           local,
				Source:          core.MemorySource{C: f.coll},
				Program:         prog,
				Pattern:         core.SequentiallyDependent,
				Remote:          nodes[r],
				Coordinator:     nodes[r],
				GlobalSubgraphs: total,
			}, engine)
			if err != nil {
				errs[r] = err
				tb.Logf("node %d error: %v", r, err)
				return
			}
			arr := prog.ArrivalsOf(0, local, f.tmpl)
			mu.Lock()
			for _, pd := range local {
				for _, g := range pd.GlobalIdx {
					merged[g] = arr[g]
				}
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("node %d: %v", r, err)
		}
	}
	return merged
}

func TestDistributedTDSPMatchesSingleProcess(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	nodes := mesh(t, k, f.owner)

	// Single-process reference over the identical parts.
	refProg := newTDSP(t, f.parts)
	if _, err := core.Run(&core.Job{
		Template: f.tmpl, Parts: f.parts,
		Source:  core.MemorySource{C: f.coll},
		Program: refProg, Pattern: core.SequentiallyDependent,
	}); err != nil {
		t.Fatal(err)
	}
	want := refProg.ArrivalsOf(0, f.parts, f.tmpl)

	got := runDistributedTDSP(t, f, nodes)
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
			t.Fatalf("vertex %d: distributed %v vs single %v", v, got[v], want[v])
		}
		if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
			t.Fatalf("vertex %d: distributed %v vs single %v", v, got[v], want[v])
		}
	}
}

func TestDistributedMemeMatchesSingleProcess(t *testing.T) {
	const k = 3
	tmpl := gen.SmallWorld(gen.SmallWorldConfig{N: 400, M: 2, Seed: 12})
	sir, err := gen.SIRTweets(tmpl, gen.SIRConfig{
		Timesteps: 8, Delta: 10, Memes: []string{"#d"},
		SeedsPerMeme: 2, HitProb: 0.35, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 14}).Partition(tmpl, k)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := subgraph.Build(tmpl, a)
	if err != nil {
		t.Fatal(err)
	}
	owner := []int32{0, 1, 2}
	nodes := mesh(t, k, owner)

	refProg := algorithms.NewMeme(parts, "#d", gen.AttrTweets)
	if _, err := core.Run(&core.Job{
		Template: tmpl, Parts: parts,
		Source:  core.MemorySource{C: sir.Collection},
		Program: refProg, Pattern: core.SequentiallyDependent,
	}); err != nil {
		t.Fatal(err)
	}
	want := refProg.ColoredAt(parts, tmpl)

	got := make([]int32, tmpl.NumVertices())
	for i := range got {
		got[i] = -1
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, k)
	total := subgraph.TotalSubgraphs(parts)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := parts[r : r+1]
			prog := algorithms.NewMeme(local, "#d", gen.AttrTweets)
			engine := bsp.NewEngineRemote(local, bsp.Config{}, nodes[r])
			nodes[r].Bind(engine)
			_, err := core.RunWithEngine(&core.Job{
				Template: tmpl, Parts: local,
				Source:  core.MemorySource{C: sir.Collection},
				Program: prog, Pattern: core.SequentiallyDependent,
				Remote: nodes[r], Coordinator: nodes[r],
				GlobalSubgraphs: total,
			}, engine)
			if err != nil {
				errs[r] = err
				return
			}
			at := prog.ColoredAt(local, tmpl)
			mu.Lock()
			for _, pd := range local {
				for _, g := range pd.GlobalIdx {
					got[g] = at[g]
				}
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", r, err)
		}
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d: distributed colored at %d, single %d", v, got[v], want[v])
		}
	}
}

// votingProgram exercises distributed WhileMode consensus: every subgraph
// keeps the loop alive until a target timestep, then votes to halt.
type votingProgram struct {
	until int
}

func (p *votingProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if timestep < p.until {
		ctx.SendToNextTimestep(int64(timestep))
	} else {
		ctx.VoteToHaltTimestep()
	}
	ctx.VoteToHalt()
}

func TestDistributedWhileModeConsensus(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	nodes := mesh(t, k, f.owner)
	total := subgraph.TotalSubgraphs(f.parts)

	var wg sync.WaitGroup
	results := make([]*core.Result, k)
	errs := make([]error, k)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := f.parts[r : r+1]
			engine := bsp.NewEngineRemote(local, bsp.Config{}, nodes[r])
			nodes[r].Bind(engine)
			results[r], errs[r] = core.RunWithEngine(&core.Job{
				Template: f.tmpl, Parts: local,
				Source:  core.MemorySource{C: f.coll},
				Program: &votingProgram{until: 4},
				Pattern: core.SequentiallyDependent, WhileMode: true,
				Remote: nodes[r], Coordinator: nodes[r],
				GlobalSubgraphs: total,
			}, engine)
		}(r)
	}
	wg.Wait()
	for r := 0; r < k; r++ {
		if errs[r] != nil {
			t.Fatalf("node %d: %v", r, errs[r])
		}
		if !results[r].HaltedEarly || results[r].TimestepsRun != 5 {
			t.Errorf("node %d: haltedEarly=%v timesteps=%d, want early at 5",
				r, results[r].HaltedEarly, results[r].TimestepsRun)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{Rank: 3, Addrs: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestSingleNodeMesh(t *testing.T) {
	nodes := mesh(t, 1, []int32{0})
	// A 1-node mesh degenerates to local behavior.
	stats, err := nodes[0].Barrier(0, bsp.BarrierStats{Sent: 3, AllHalted: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 3 || !stats.AllHalted {
		t.Errorf("stats = %+v", stats)
	}
	in, votes, msgs, err := nodes[0].ExchangeTemporal(0, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 0 || votes != 2 || msgs != 0 {
		t.Errorf("exchange = %v %d %d", in, votes, msgs)
	}
}

func TestLocalPartitions(t *testing.T) {
	n, err := New(Config{Rank: 1, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Owner: []int32{0, 1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	lp := n.LocalPartitions()
	if len(lp) != 2 || lp[0] != 1 || lp[1] != 2 {
		t.Errorf("LocalPartitions = %v", lp)
	}
	if n.Rank() != 1 || n.NumNodes() != 2 {
		t.Errorf("rank/nodes = %d/%d", n.Rank(), n.NumNodes())
	}
}
