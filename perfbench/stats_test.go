package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {20, 50, true},
	}
	for _, c := range cases {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {0, 1}} {
		if got := quantile(ds, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
}

// TestDueTimeLatency stalls the first request of an open loop on one
// connection: the request due behind it must be charged the stall, since
// latency runs from the due time, not the send time.
func TestDueTimeLatency(t *testing.T) {
	if d := dueLatency(time.Unix(0, 0), time.Unix(0, int64(5*time.Millisecond))); d != 5*time.Millisecond {
		t.Fatalf("dueLatency = %v", d)
	}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(80 * time.Millisecond)
		}
	}))
	defer srv.Close()
	ok := func() prepared {
		return prepared{body: []byte("{}"), check: func([]byte) error { return nil }}
	}
	ops := []op{{due: 0, path: "/", prepare: ok}, {due: 10 * time.Millisecond, path: "/", prepare: ok}}
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	outs := runOpenLoop(cl, srv.URL, ops, 1, nil, 0)
	second := outs[1]
	if !second.wasSent || second.failed {
		t.Fatalf("second request not answered: %+v", second)
	}
	if wait := second.sent.Sub(second.due); wait < 50*time.Millisecond {
		t.Errorf("second request waited %v for the connection, want the stall (~70ms)", wait)
	}
	if lat := second.latency(); lat < second.done.Sub(second.sent)+50*time.Millisecond {
		t.Errorf("latency %v does not include the wait behind the stall", lat)
	}
}

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

func TestSelfTimeSubtraction(t *testing.T) {
	root := interval{at(0), at(100)}
	levels := [][]interval{
		{{at(10), at(90)}},
		// Overlapping children merge; the part past the parent is clipped.
		{{at(20), at(30)}, {at(25), at(40)}, {at(80), at(120)}},
	}
	got := selfTimes(root, levels)
	want := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 30 * time.Millisecond}
	var sum time.Duration
	for i := range want {
		sum += got[i]
		if got[i] != want[i] {
			t.Errorf("level %d self = %v, want %v", i, got[i], want[i])
		}
	}
	if sum != root.dur() {
		t.Errorf("self times sum to %v, want the root's %v", sum, root.dur())
	}
	// A child outside its parent contributes nothing.
	if got := selfTimes(root, [][]interval{{{at(10), at(20)}}, {{at(50), at(60)}}}); got[2] != 0 || got[1] != 10*time.Millisecond {
		t.Errorf("disjoint grandchild: %v", got)
	}
	a := newAttribution()
	a.addOp(100*time.Millisecond, []string{"serve", "core"}, []time.Duration{30 * time.Millisecond, 60 * time.Millisecond})
	if a.unattributed() != 10*time.Millisecond {
		t.Errorf("unattributed = %v, want 10ms", a.unattributed())
	}
}

func TestIntervalsIn(t *testing.T) {
	sorted := []interval{{at(0), at(50)}, {at(40), at(45)}, {at(60), at(70)}, {at(100), at(110)}}
	got := intervalsIn(sorted, 50*time.Millisecond, at(44), at(65))
	if len(got) != 3 {
		t.Errorf("got %d intervals overlapping [44,65), want 3: %v", len(got), got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// and the workloads in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	lists := []struct {
		key      string
		manifest []struct{ Name, Unit string }
		program  []struct{ name, unit string }
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}}
	for _, l := range lists {
		if len(l.manifest) != len(l.program) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program %d", len(l.manifest), l.key, len(l.program))
			continue
		}
		for i, m := range l.program {
			if l.manifest[i].Name != m.name || l.manifest[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", l.key, i, l.manifest[i].Name, l.manifest[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d = %s, program runs %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestMoreSetups(t *testing.T) {
	if !moreSetups(minSetups-1, time.Hour) {
		t.Error("fewer than minSetups set-ups must repeat however long they took")
	}
	if !moreSetups(minSetups, setupBudget/2) || moreSetups(minSetups, setupBudget) {
		t.Error("set-ups past the minimum repeat only while under the budget")
	}
	if moreSetups(maxSetups, 0) {
		t.Error("set-ups stop at maxSetups")
	}
}
