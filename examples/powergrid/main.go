// Powergrid: the paper's Smart Grid motivation — "changing power flows on
// edges, power consumption at vertices" — with slow topology change modeled
// through the isExists edge attribute.
//
// A transmission grid (road-like lattice) carries 24 hourly instances of
// consumption readings; an overnight storm keeps a corridor of lines down
// until 10:00. The example:
//
//  1. ranks the daily top consumers per hour with the independent-pattern
//     TopN (temporal parallelism enabled);
//  2. runs TDSP from the control center honoring isExists, showing crews
//     cannot reach substations behind downed lines until they are restored.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"tsgraph"
)

func main() {
	var (
		rows  = flag.Int("rows", 24, "grid rows")
		cols  = flag.Int("cols", 24, "grid cols")
		hours = flag.Int("hours", 24, "hourly instances")
		hosts = flag.Int("hosts", 3, "simulated hosts")
		seed  = flag.Int64("seed", 41, "random seed")
	)
	flag.Parse()

	// Template: a lattice grid with consumption on vertices and per-line
	// travel time plus an existence flag on edges.
	vattrs, err := tsgraph.NewSchema(
		[]string{tsgraph.AttrLoad},
		[]tsgraph.AttrType{tsgraph.TFloat})
	if err != nil {
		log.Fatal(err)
	}
	eattrs, err := tsgraph.NewSchema(
		[]string{tsgraph.AttrLatency, "exists"},
		[]tsgraph.AttrType{tsgraph.TFloat, tsgraph.TBool})
	if err != nil {
		log.Fatal(err)
	}
	b := tsgraph.NewBuilder("powergrid", vattrs, eattrs)
	id := func(r, c int) tsgraph.VertexID { return tsgraph.VertexID(r**cols + c) }
	for r := 0; r < *rows; r++ {
		for c := 0; c < *cols; c++ {
			if c+1 < *cols {
				b.AddUndirectedEdge(id(r, c), id(r, c+1))
			}
			if r+1 < *rows {
				b.AddUndirectedEdge(id(r, c), id(r+1, c))
			}
		}
	}
	tmpl, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %d substations, %d transmission lines\n", tmpl.NumVertices(), tmpl.NumEdges())

	// Instances: consumption follows a day curve; an overnight storm downs
	// every line into a middle column until hour 10.
	const delta = 3600
	rng := rand.New(rand.NewSource(*seed))
	coll := tsgraph.NewCollection(tmpl, 0, delta)
	li := tmpl.EdgeSchema().Index(tsgraph.AttrLatency)
	xi := tmpl.EdgeSchema().Index("exists")
	ci := tmpl.VertexSchema().Index(tsgraph.AttrLoad)
	stormCol := *cols / 2
	downedAt := func(e int, hour int) bool {
		if hour >= 10 {
			return false
		}
		// A line is in the storm corridor if either endpoint sits in the
		// storm column.
		head := int(tmpl.VertexID(tmpl.Target(e))) % *cols
		return head == stormCol
	}
	for h := 0; h < *hours; h++ {
		ins := tsgraph.NewInstance(tmpl, h, coll.TimeOf(h))
		// Day curve: consumption peaks at 19:00.
		peak := 1 - math.Abs(float64(h)-19)/19
		for v := 0; v < tmpl.NumVertices(); v++ {
			ins.VertexCols[ci].Floats[v] = 50 + 200*peak*rng.Float64()
		}
		for e := 0; e < tmpl.NumEdges(); e++ {
			ins.EdgeCols[li].Floats[e] = 600 + rng.Float64()*1200 // 10–30 min drives
			ins.EdgeCols[xi].Bools[e] = !downedAt(e, h)
		}
		if err := coll.Append(ins); err != nil {
			log.Fatal(err)
		}
	}

	assign, err := tsgraph.PartitionMultilevel(tmpl, *hosts, *seed)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Daily top consumers (independent pattern, temporally parallel).
	top, _, err := tsgraph.TopN(tmpl, parts, tsgraph.AttrLoad, 3,
		tsgraph.MemorySource{C: coll}, tsgraph.EngineConfig{}, nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop consumers per hour (independent pattern):")
	for h := 0; h < *hours; h += 6 {
		fmt.Printf("  %02d:00 ", h)
		for _, vv := range top[h] {
			fmt.Printf(" substation %d (%.0f kW)", vv.Vertex, vv.Value)
		}
		fmt.Println()
	}

	// 2. Crew dispatch from the control center at the NW corner, honoring
	// line outages: with the storm corridor down, eastern substations are
	// only reachable after restoration.
	prog, err := tsgraph.NewTDSPProgram(parts, tmpl.VertexIndex(id(0, 0)), delta, tsgraph.AttrLatency)
	if err != nil {
		log.Fatal(err)
	}
	prog.ExistsAttr = "exists"
	res, err := tsgraph.Run(&tsgraph.Job{
		Template: tmpl, Parts: parts,
		Source:  tsgraph.MemorySource{C: coll},
		Program: prog, Pattern: tsgraph.SequentiallyDependent,
	})
	if err != nil {
		log.Fatal(err)
	}
	arr := prog.ArrivalsOf(0, parts, tmpl)
	west := tmpl.VertexIndex(id(*rows/2, stormCol-2))
	east := tmpl.VertexIndex(id(*rows/2, stormCol+2))
	far := tmpl.VertexIndex(id(*rows-1, *cols-1))
	hourOf := func(a float64) string {
		if math.IsInf(a, 1) {
			return "unreachable"
		}
		return fmt.Sprintf("%02d:%02d", int(a)/3600, (int(a)%3600)/60)
	}
	fmt.Printf("\ncrew dispatch from the control center at 00:00 (storm closes column %d until 10:00):\n", stormCol)
	fmt.Printf("  west of the corridor:  arrival %s\n", hourOf(arr[west]))
	fmt.Printf("  east of the corridor:  arrival %s\n", hourOf(arr[east]))
	fmt.Printf("  far corner:            arrival %s\n", hourOf(arr[far]))
	fmt.Printf("  (%d timesteps, %d supersteps)\n", res.TimestepsRun, res.Supersteps)
}
