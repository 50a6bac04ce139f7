package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/subgraph"
)

// slowDyingProgram keeps every subgraph active so the run spans many
// supersteps, giving the test a window to kill a peer.
type slowDyingProgram struct{ limit int }

func (p *slowDyingProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	time.Sleep(time.Millisecond)
	if superstep < p.limit {
		return // stay active
	}
	ctx.VoteToHalt()
}

// TestPeerDeathSurfacesError kills one node mid-run; the surviving node
// must fail with a transport error rather than hang at the barrier.
func TestPeerDeathSurfacesError(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	nodes := mesh(t, k, f.owner)
	total := subgraph.TotalSubgraphs(f.parts)

	var wg sync.WaitGroup
	errs := make([]error, k)
	// Node 1 dies shortly after the run starts.
	go func() {
		time.Sleep(30 * time.Millisecond)
		nodes[1].Close()
	}()
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := f.parts[r : r+1]
			engine := bsp.NewEngineRemote(local, bsp.Config{}, nodes[r])
			nodes[r].Bind(engine)
			_, errs[r] = core.RunWithEngine(&core.Job{
				Template: f.tmpl, Parts: local,
				Source:  core.MemorySource{C: f.coll},
				Program: &slowDyingProgram{limit: 500},
				Pattern: core.SequentiallyDependent,
				Remote:  nodes[r], Coordinator: nodes[r],
				GlobalSubgraphs: total,
				Config:          bsp.Config{MaxSupersteps: 1000},
			}, engine)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("surviving node hung after peer death")
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("expected at least one node to report the peer death")
	}
}

// errRemote fails every Send.
type errRemote struct{}

func (errRemote) Send(int, []bsp.Message) error { return errors.New("link down") }
func (errRemote) Barrier(_ int, l bsp.BarrierStats) (bsp.BarrierStats, error) {
	l.Sent++ // force cross-host traffic so Send gets called
	return l, nil
}

func TestEngineSurfacesSendError(t *testing.T) {
	tmpl := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, Seed: 51})
	f := newDistFixture(t, 2)
	_ = tmpl
	local := f.parts[0:1]
	engine := bsp.NewEngineRemote(local, bsp.Config{}, errRemote{})
	prog := core.Job{
		Template: f.tmpl, Parts: local,
		Source:  core.MemorySource{C: f.coll},
		Program: &pingAcross{}, Pattern: core.SequentiallyDependent,
		Remote: errRemote{}, Coordinator: nopCoord{},
	}
	if _, err := core.RunWithEngine(&prog, engine); err == nil {
		t.Fatal("Send failure not surfaced")
	}
}

// pingAcross sends one message to the other partition's subgraph so the
// engine must use Remote.Send.
type pingAcross struct{}

func (pingAcross) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 {
		ctx.SendTo(subgraph.MakeID(1, 0), "x")
	}
	ctx.VoteToHalt()
}

// nopCoord is a trivial Coordinator for single-node tests.
type nopCoord struct{}

func (nopCoord) ExchangeTemporal(ts int, out []bsp.Message, votes int) ([]bsp.Message, int, int, error) {
	return out, votes, len(out), nil
}

// TestWireCountersNoDoubleCountOnDisconnect kills a peer mid-flush and
// checks the per-peer framesSent counter advances only for frames that
// actually made it onto the wire: failed encodes — and retries of the same
// frame after the failure — must not inflate it.
func TestWireCountersNoDoubleCountOnDisconnect(t *testing.T) {
	nodes := mesh(t, 2, []int32{0, 1})
	p := nodes[0].peers[1]
	// Start probes clock offsets both ways, and node 0 answers node 1's
	// pings on p from its read loop. Take the baseline once those pongs,
	// after node 0's own pings, are on the wire.
	for deadline := time.Now().Add(5 * time.Second); p.framesSent.Load() < 2*startupProbeRounds; {
		if time.Now().After(deadline) {
			t.Fatalf("startup probes: %d frames sent, want %d", p.framesSent.Load(), 2*startupProbeRounds)
		}
		time.Sleep(time.Millisecond)
	}
	base := p.framesSent.Load()

	f := &frame{Kind: kindPing, Rank: 0, T1: 1}
	var succeeded int64
	for i := 0; i < 3; i++ {
		if err := p.send(f, nil, false); err != nil {
			t.Fatalf("send %d on live peer: %v", i, err)
		}
		succeeded++
	}

	// Sever the transport under the encoder — the sender-side view of a
	// peer dying mid-flush.
	p.conn.Close()
	if err := p.send(f, nil, false); err == nil {
		t.Fatal("send succeeded on a severed connection")
	}
	if got := p.framesSent.Load() - base; got != succeeded {
		t.Fatalf("framesSent advanced by %d, want %d (one per successful flush, none for the failure)", got, succeeded)
	}

	// Retrying the lost frame against the dead connection must not count.
	for i := 0; i < 5; i++ {
		if err := p.send(f, nil, false); err == nil {
			succeeded++
		}
	}
	if got := p.framesSent.Load() - base; got != succeeded {
		t.Fatalf("retries double-counted: framesSent advanced by %d, want %d", got, succeeded)
	}
}
