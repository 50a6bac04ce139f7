package shard

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
	"tsgraph/internal/subgraph"
)

const (
	fixSteps = 8
	fixDelta = 60
	fixMeme  = "#storm"
	fixParts = 4
)

// fixture builds a small road network with latencies, loads, and SIR
// tweets over fixParts partitions, so every query class has data and
// groups of 2 members own 2 partitions each.
func fixture(tb testing.TB) (*graph.Template, []*subgraph.PartitionData, *partition.Assignment, core.MemorySource) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 7})
	sir, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta,
		Memes: []string{fixMeme}, SeedsPerMeme: 2, HitProb: 0.35, Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c := sir.Collection
	lat, err := gen.RandomLatencies(g, gen.LatencyConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta, Min: 1, Max: 50, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	li := g.EdgeSchema().Index(gen.AttrLatency)
	for s := 0; s < fixSteps; s++ {
		c.Instance(s).EdgeCols[li] = lat.Instance(s).EdgeCols[li]
	}
	if err := gen.RandomLoads(c, 11, 0, 100); err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(g, fixParts)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return g, parts, a, core.MemorySource{C: c}
}

func TestLayoutAssignmentRoundTrip(t *testing.T) {
	for _, tc := range []struct{ ranks, replicas int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {4, 0},
	} {
		addrs := make([]string, tc.ranks)
		for i := range addrs {
			addrs[i] = "h"
		}
		l := Layout{Ranks: addrs, Mesh: addrs, Replicas: tc.replicas}
		groups := l.Groups()
		if len(groups) != l.NumGroups() {
			t.Fatalf("%+v: %d groups, want %d", tc, len(groups), l.NumGroups())
		}
		seen := make(map[int]bool)
		for gi, g := range groups {
			for mi, rank := range g {
				if seen[rank] {
					t.Fatalf("%+v: rank %d in two groups", tc, rank)
				}
				seen[rank] = true
				// GroupOf inverts Groups.
				gg, mm, members := l.GroupOf(rank)
				if gg != gi || mm != mi || len(members) != len(g) {
					t.Fatalf("%+v: GroupOf(%d) = (%d,%d,%d members), want (%d,%d,%d)",
						tc, rank, gg, mm, len(members), gi, mi, len(g))
				}
			}
		}
		if len(seen) != tc.ranks {
			t.Fatalf("%+v: groups cover %d of %d ranks", tc, len(seen), tc.ranks)
		}
		// Every partition is owned by exactly one member per group, and
		// LocalParts partitions the partition set within each group.
		const numParts = 7
		for _, g := range groups {
			owned := make(map[int]bool)
			for _, rank := range g {
				for _, p := range LocalParts(l, rank, numParts) {
					if owned[p] {
						t.Fatalf("%+v: partition %d owned twice in group", tc, p)
					}
					owned[p] = true
				}
			}
			if len(owned) != numParts {
				t.Fatalf("%+v: group owns %d of %d partitions", tc, len(owned), numParts)
			}
		}
	}
}

// bootShard starts ranks in-process on loopback listeners and returns the
// layout plus the live ranks, rank-indexed.
func bootShard(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, numRanks, replicas int) (Layout, []*Rank) {
	tb.Helper()
	l := Layout{Replicas: replicas}
	rpcLns := make([]net.Listener, numRanks)
	meshLns := make([]net.Listener, numRanks)
	for i := 0; i < numRanks; i++ {
		var err error
		if rpcLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		if meshLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		l.Ranks = append(l.Ranks, rpcLns[i].Addr().String())
		l.Mesh = append(l.Mesh, meshLns[i].Addr().String())
	}
	ranks := make([]*Rank, numRanks)
	for i := 0; i < numRanks; i++ {
		ranks[i] = newRank(tb, g, parts, a, src, l, i, rpcLns[i], meshLns[i])
	}
	// Mesh members block in Start until their whole group is up.
	var wg sync.WaitGroup
	errs := make([]error, numRanks)
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = r.Start()
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d start: %v", i, err)
		}
	}
	return l, ranks
}

// newRank builds (but does not start) rank i of layout l over the fixture.
func newRank(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, l Layout, i int, rpcLn, meshLn net.Listener) *Rank {
	tb.Helper()
	r, err := NewRank(RankConfig{
		Layout: l, Rank: i,
		Resident: serve.Resident{
			Template: g, Parts: parts, Source: src,
			Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
			Cores: 2,
		},
		Assign:     a,
		Resilience: &cluster.Resilience{BackoffBase: 2 * time.Millisecond, BackoffCap: 50 * time.Millisecond, RecoveryWindow: 2 * time.Second},
		Listener:   rpcLn, MeshListener: meshLn,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r
}

func shardServer(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, l Layout) (*serve.Server, *Router) {
	tb.Helper()
	router, err := NewRouter(RouterConfig{
		Layout: l, Template: g, Assign: a,
		Timeout: 10 * time.Second, DownCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(router.Close)
	srv, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
		Sweeper: router,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	return srv, router
}

func oracleQueries() []serve.Query {
	v0, v63 := int64(0), int64(63)
	return []serve.Query{
		{Kind: "tdsp", Source: 0, Target: 63, Depart: 0},
		{Kind: "tdsp", Source: 63, Target: 0, Depart: 2},
		{Kind: "tdsp", Source: 9, Target: 54, Depart: 1},
		{Kind: "topn", Attr: gen.AttrLoad, N: 5, From: 1, Count: 3},
		{Kind: "topn", Attr: gen.AttrLoad, N: 3},
		{Kind: "meme", Tag: fixMeme},
		{Kind: "meme", Tag: fixMeme, Vertex: &v0},
		{Kind: "meme", Tag: fixMeme, Vertex: &v63},
		{Kind: "meme", Tag: "#nosuch", Vertex: &v0},
		// Pinned below the head: every member bounds its sweep at the
		// router-chosen watermark.
		{Kind: "tdsp", Source: 0, Target: 63, Depart: 1, Watermark: fixSteps - 3},
		{Kind: "topn", Attr: gen.AttrLoad, N: 4, Watermark: fixSteps - 2},
		{Kind: "meme", Tag: fixMeme, Vertex: &v63, Watermark: fixSteps - 4},
	}
}

// answerBytes runs one query and returns its canonical JSON, the exact
// bytes the HTTP layer writes.
func answerBytes(tb testing.TB, srv *serve.Server, q serve.Query) []byte {
	tb.Helper()
	ans, err := srv.Submit(context.Background(), q)
	if err != nil {
		tb.Fatalf("query %+v: %v", q, err)
	}
	b, err := json.Marshal(ans)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestShardedByteIdentical is the core acceptance check: every query class
// answered through a sharded deployment is byte-identical to the
// single-process server, at every topology — a single rank, one meshed
// group of two or four members, two single-member replicas, two meshed
// replicas, and a meshed group beside a single-member group.
func TestShardedByteIdentical(t *testing.T) {
	g, parts, a, src := fixture(t)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for _, tc := range []struct{ ranks, replicas int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 1},
	} {
		t.Run(fmt.Sprintf("ranks=%d,replicas=%d", tc.ranks, tc.replicas), func(t *testing.T) {
			l, _ := bootShard(t, g, parts, a, src, tc.ranks, tc.replicas)
			sharded, _ := shardServer(t, g, parts, a, src, l)
			// Submit everything twice: the round-robin cursor lands each
			// sweep on a different replica group, so every group must
			// produce the oracle answer.
			for round := 0; round < 2; round++ {
				for _, q := range oracleQueries() {
					want := answerBytes(t, local, q)
					got := answerBytes(t, sharded, q)
					if string(got) != string(want) {
						t.Fatalf("round %d query %+v:\nsharded %s\nlocal   %s", round, q, got, want)
					}
				}
			}
		})
	}
}

// TestRouterFailover kills every member of one replica group and checks
// that queries keep getting byte-identical answers from the replica, with
// the failover visible in the router's counters.
func TestRouterFailover(t *testing.T) {
	g, parts, a, src := fixture(t)
	l, ranks := bootShard(t, g, parts, a, src, 4, 2)
	sharded, router := shardServer(t, g, parts, a, src, l)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	queries := oracleQueries()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = answerBytes(t, local, q)
		if got := answerBytes(t, sharded, q); string(got) != string(want[i]) {
			t.Fatalf("pre-kill query %+v: %s != %s", q, got, want[i])
		}
	}

	// Group 0 is ranks {0,1}; killing both forces every sweep onto group 1.
	ranks[0].Close()
	ranks[1].Close()
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			if got := answerBytes(t, sharded, q); string(got) != string(want[i]) {
				t.Fatalf("post-kill query %+v: %s != %s", q, got, want[i])
			}
		}
	}
	if router.failovers.Load() == 0 {
		t.Fatal("no failovers recorded after killing a replica group")
	}
}

// TestRouterAllDownRejects checks the 429 path: with every replica group
// dead the router rejects (retryable) instead of erroring.
func TestRouterAllDownRejects(t *testing.T) {
	g, parts, a, src := fixture(t)
	l, ranks := bootShard(t, g, parts, a, src, 1, 1)
	sharded, _ := shardServer(t, g, parts, a, src, l)
	if got := answerBytes(t, sharded, serve.Query{Kind: "tdsp", Source: 0, Target: 63}); len(got) == 0 {
		t.Fatal("empty answer while rank alive")
	}
	ranks[0].Close()
	_, err := sharded.Submit(context.Background(), serve.Query{Kind: "tdsp", Source: 0, Target: 63, Depart: 1})
	var rej *serve.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectError with all groups down, got %v", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("reject without Retry-After: %+v", rej)
	}
}

// TestGroupMemberStartingLate starts one member of a meshed group on a
// TDSP sweep well after the other, so the early member's superstep-0
// boundary messages reach the late one before its sweep has begun. They
// must wait for it: every arrival must match a single-process run.
func TestGroupMemberStartingLate(t *testing.T) {
	g, parts, a, src := fixture(t)
	_, ranks := bootShard(t, g, parts, a, src, 2, 1)
	const source = 27 // its superstep-0 expansion crosses to the other member
	// Each member gets its own copy of the queries, as off the wire: the
	// program deduplicates targets in place.
	queries := func() []algorithms.BatchQuery {
		q := algorithms.BatchQuery{Source: source}
		for v := 0; v < g.NumVertices(); v++ {
			if v != source {
				q.Targets = append(q.Targets, v)
			}
		}
		return []algorithms.BatchQuery{q}
	}
	want, _, err := algorithms.RunBatchTDSP(g, parts, queries(), 0, src, fixDelta, gen.AttrLatency, bsp.Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round, late := range []int{0, 1, 1, 0} {
		resps := make([]*Response, len(ranks))
		var wg sync.WaitGroup
		for i, r := range ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i == late {
					time.Sleep(100 * time.Millisecond)
				}
				resps[i] = r.handle(&Request{ID: int64(round), Kind: reqTDSP, WM: fixSteps, Queries: queries()})
			}()
		}
		wg.Wait()
		n := 0
		for i, resp := range resps {
			if resp.Err != "" {
				t.Fatalf("round %d rank %d: %s", round, i, resp.Err)
			}
			for _, got := range resp.Arrivals {
				n++
				arr, at, ok := want.Arrival(0, int(got.Target))
				if got.Arr != arr || int(got.At) != at || got.Reached != ok {
					t.Fatalf("round %d (rank %d late): target %d arrival %v@%d reached=%v, want %v@%d reached=%v",
						round, late, got.Target, got.Arr, got.At, got.Reached, arr, at, ok)
				}
			}
		}
		if n != g.NumVertices()-1 {
			t.Fatalf("round %d: %d arrivals for %d targets", round, n, g.NumVertices()-1)
		}
	}
}

// TestRankRejectsMemberWithoutPartition builds a group with more members
// than partitions: the member left without one must be refused, since its
// share of a cross-partition sweep would be empty.
func TestRankRejectsMemberWithoutPartition(t *testing.T) {
	g, parts, a, src := fixture(t)
	l := Layout{Replicas: 1}
	for i := 0; i <= fixParts; i++ {
		l.Ranks = append(l.Ranks, fmt.Sprintf("127.0.0.1:%d", 40000+i))
		l.Mesh = append(l.Mesh, fmt.Sprintf("127.0.0.1:%d", 41000+i))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = NewRank(RankConfig{
		Layout: l, Rank: fixParts,
		Resident: serve.Resident{Template: g, Parts: parts, Source: src, Delta: fixDelta},
		Assign:   a, Listener: ln, MeshListener: ln,
	})
	if err == nil {
		t.Fatalf("member %d of a %d-member group over %d partitions was accepted", fixParts, fixParts+1, fixParts)
	}
}

// TestRankRejectsMalformedProbes sends meme probes outside the template's
// vertex range straight to a rank: it must answer with an error response,
// not crash.
func TestRankRejectsMalformedProbes(t *testing.T) {
	g, parts, a, src := fixture(t)
	_, ranks := bootShard(t, g, parts, a, src, 1, 1)
	for _, probe := range []int32{1 << 20, -1, int32(g.NumVertices())} {
		resp := ranks[0].handle(&Request{Kind: reqMeme, WM: fixSteps, Tag: fixMeme, Probes: []int32{0, probe}})
		if resp.Err == "" {
			t.Fatalf("probe %d: no error in response %+v", probe, resp)
		}
	}
}

// TestRouterFailsOverShortProbeAt puts a rank that answers meme sweeps with
// too few probe answers in front of a healthy replica: the router must fail
// the bad group over and still answer byte-identically.
func TestRouterFailsOverShortProbeAt(t *testing.T) {
	g, parts, a, src := fixture(t)
	bad, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	go func() {
		for {
			conn, err := bad.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req Request
					if dec.Decode(&req) != nil || enc.Encode(&Response{ID: req.ID}) != nil {
						return
					}
				}
			}()
		}
	}()
	good, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 is the bad rank, group 1 the healthy one; the round-robin
	// cursor sends the first sweep to group 0.
	l := Layout{Ranks: []string{bad.Addr().String(), good.Addr().String()}, Replicas: 2}
	r := newRank(t, g, parts, a, src, l, 1, good, nil)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	sharded, router := shardServer(t, g, parts, a, src, l)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	v := int64(63)
	q := serve.Query{Kind: "meme", Tag: fixMeme, Vertex: &v}
	if got, want := answerBytes(t, sharded, q), answerBytes(t, local, q); string(got) != string(want) {
		t.Fatalf("sharded %s\nlocal   %s", got, want)
	}
	if router.failovers.Load() != 1 {
		t.Fatalf("%d failovers, want 1", router.failovers.Load())
	}
}
