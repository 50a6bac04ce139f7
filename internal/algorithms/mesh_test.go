package algorithms

import (
	"errors"
	"math"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
)

// loneNode is the mesh link of a one-member group: every partition is
// local, so barriers and the temporal exchange return this member's own
// figures. With failNext set, the next barrier fails after a peer's frame
// for that superstep has arrived, as when a peer is lost part-way through
// a sweep it had already advanced; the next barrier counts the frame as
// sent, as the peer's report would, so the run reads the superstep after.
type loneNode struct {
	engine   *bsp.Engine
	failNext bool
	frame    []bsp.Message
	owed     int64
}

func (n *loneNode) Bind(e *bsp.Engine)            { n.engine = e }
func (n *loneNode) Send(int, []bsp.Message) error { return nil }

func (n *loneNode) Barrier(superstep int, local bsp.BarrierStats) (bsp.BarrierStats, error) {
	if n.failNext {
		n.failNext = false
		n.engine.Inject(superstep, n.frame)
		n.owed = int64(len(n.frame))
		return bsp.BarrierStats{}, errors.New("peer lost")
	}
	local.Sent += n.owed
	n.owed = 0
	return local, nil
}

func (n *loneNode) ExchangeTemporal(_ int, out []bsp.Message, votes int) ([]bsp.Message, int, int, error) {
	return out, votes, len(out), nil
}

// TestMeshFailedSweepLeavesNoFrames fails a meshed sweep after a peer's
// boundary update has been staged, then checks that the next sweep on the
// same Mesh answers exactly as an unmeshed run: the stale update, which
// claims arrival 0 at every vertex of one subgraph, must not reach it.
func TestMeshFailedSweepLeavesNoFrames(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 41})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 8, Delta: 60, Min: 1, Max: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts := buildParts(t, g, 3)
	src := core.MemorySource{C: c}
	queries := []BatchQuery{{Source: 0}}
	want, _, err := RunBatchTDSP(g, parts, queries, 0, src, 60, gen.AttrLatency, bsp.Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	sg := parts[len(parts)-1].Subgraphs[0]
	stale := LabelBatch{Source: 0, Vertices: sg.Verts, Labels: make([]float64, len(sg.Verts))}
	node := &loneNode{failNext: true, frame: []bsp.Message{{To: sg.SID, Payload: stale}}}
	mesh := NewMesh(parts, node, bsp.Config{})
	if _, _, err := RunBatchTDSP(g, parts, queries, 0, src, 60, gen.AttrLatency, bsp.Config{}, nil, nil, mesh); err == nil {
		t.Fatal("sweep with a failing barrier succeeded")
	}
	got, _, err := RunBatchTDSP(g, parts, queries, 0, src, 60, gen.AttrLatency, bsp.Config{}, nil, nil, mesh)
	if err != nil {
		t.Fatal(err)
	}
	wantArr, gotArr := want.ArrivalsOf(0, parts, g), got.ArrivalsOf(0, parts, g)
	for v := range wantArr {
		if wantArr[v] != gotArr[v] && !(math.IsInf(wantArr[v], 1) && math.IsInf(gotArr[v], 1)) {
			t.Fatalf("vertex %d: arrival %v after a failed sweep, want %v", v, gotArr[v], wantArr[v])
		}
	}
}
