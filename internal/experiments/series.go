package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
	"tsgraph/internal/metrics"
)

// TimestepSeries is Fig 6: per-timestep time for one algorithm/dataset at
// several partition counts, with GoFS slice loading (spike every pack) and
// synchronized GC (spike every ForceGCEvery) active.
type TimestepSeries struct {
	Algo    string
	Graph   string
	K       int
	PerStep []time.Duration // simulated cluster time per timestep
	Loads   []time.Duration // instance-load share per timestep
}

// RunTimestepSeries executes one algorithm over a GoFS-backed dataset and
// returns its per-timestep series. The dataset is written under dir with
// the paper's packing parameters (pack=10, bin=5) unless overridden.
func RunTimestepSeries(ds *Dataset, algo string, ks []int, dir string, pack, bin, gcEvery int, cfg bsp.Config, seed int64) ([]TimestepSeries, error) {
	if pack <= 0 {
		pack = gofs.DefaultPack
	}
	if bin <= 0 {
		bin = gofs.DefaultBin
	}
	coll := ds.Latencies
	if algo == AlgoMeme || algo == AlgoHash {
		coll = ds.Tweets
	}
	var out []TimestepSeries
	for _, k := range ks {
		parts, a, err := buildParts(ds, k, seed)
		if err != nil {
			return nil, err
		}
		dsDir := filepath.Join(dir, fmt.Sprintf("%s_%s_k%d_p%d", strings.ToLower(ds.Name), strings.ToLower(algo), k, pack))
		if err := gofs.WriteDataset(dsDir, coll, a, pack, bin); err != nil {
			return nil, err
		}
		store, err := gofs.Open(dsDir)
		if err != nil {
			return nil, err
		}
		loader := gofs.NewLoader(store)
		rec := newRecorder(k)
		job := &core.Job{
			Template:     ds.Template,
			Parts:        parts,
			Source:       loader,
			Pattern:      core.SequentiallyDependent,
			Config:       cfg,
			Recorder:     rec,
			ForceGCEvery: gcEvery,
		}
		switch algo {
		case AlgoTDSP:
			if job.Program, err = newTDSP(ds, parts); err != nil {
				return nil, err
			}
		case AlgoMeme:
			job.Program = algorithms.NewMeme(parts, ds.Meme, "tweets")
		default:
			return nil, fmt.Errorf("experiments: timestep series supports TDSP and MEME, not %q", algo)
		}
		if _, err := core.Run(job); err != nil {
			return nil, err
		}
		series := TimestepSeries{Algo: algo, Graph: ds.Name, K: k}
		for i := 0; i < rec.NumTimesteps(); i++ {
			step := rec.Step(i)
			series.PerStep = append(series.PerStep, step.SimWall)
			series.Loads = append(series.Loads, step.Load/time.Duration(k))
		}
		out = append(out, series)
		os.RemoveAll(dsDir)
	}
	return out, nil
}

// RenderTimestepSeries writes Fig 6 as a text matrix (one row per
// timestep, one column per partition count).
func RenderTimestepSeries(w io.Writer, series []TimestepSeries) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "== Fig 6: time per timestep, %s on %s (simulated cluster ms; GoFS pack loads and synchronized GC show as spikes) ==\n",
		series[0].Algo, series[0].Graph)
	fmt.Fprintf(w, "%8s", "timestep")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%d parts", s.K))
	}
	fmt.Fprintf(w, " %12s\n", "load (ms)")
	steps := len(series[0].PerStep)
	for i := 0; i < steps; i++ {
		fmt.Fprintf(w, "%8d", i)
		for _, s := range series {
			if i < len(s.PerStep) {
				fmt.Fprintf(w, " %12.3f", s.PerStep[i].Seconds()*1000)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintf(w, " %12.3f\n", series[0].Loads[i].Seconds()*1000)
	}
}

// ProgressSeries is Fig 7a/7c: a per-partition, per-timestep counter
// (vertices finalized by TDSP, vertices colored by MEME).
type ProgressSeries struct {
	Algo    string
	Graph   string
	K       int
	Counter string
	// PerPart[p][t] is partition p's counter at timestep t.
	PerPart [][]int64
}

// RunProgress executes one algorithm at k partitions and extracts the
// per-partition progress counter series.
func RunProgress(ds *Dataset, algo string, k int, cfg bsp.Config, seed int64) (*ProgressSeries, *metrics.Recorder, error) {
	cell, rec, err := RunAlgo(ds, algo, k, cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	counter := algorithms.CounterFinalized
	if algo == AlgoMeme {
		counter = algorithms.CounterColored
	}
	ps := &ProgressSeries{Algo: algo, Graph: ds.Name, K: k, Counter: counter}
	for p := 0; p < k; p++ {
		ps.PerPart = append(ps.PerPart, rec.CounterSeries(p, counter))
	}
	_ = cell
	return ps, rec, nil
}

// RenderProgress writes Fig 7a/7c as a text matrix.
func RenderProgress(w io.Writer, ps *ProgressSeries) {
	fmt.Fprintf(w, "== Fig 7: vertices %s per timestep per partition, %s on %s (%d parts) ==\n",
		ps.Counter, ps.Algo, ps.Graph, ps.K)
	fmt.Fprintf(w, "%8s", "timestep")
	for p := range ps.PerPart {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("part %d", p))
	}
	fmt.Fprintln(w)
	if len(ps.PerPart) == 0 {
		return
	}
	for t := 0; t < len(ps.PerPart[0]); t++ {
		fmt.Fprintf(w, "%8d", t)
		for p := range ps.PerPart {
			fmt.Fprintf(w, " %10d", ps.PerPart[p][t])
		}
		fmt.Fprintln(w)
	}
}

// UtilizationReport is Fig 7b/7d: per-partition compute / partition
// overhead / sync overhead shares.
type UtilizationReport struct {
	Algo  string
	Graph string
	K     int
	Utils []metrics.Utilization
	// Skew is the straggler ratio: max/median per-partition total compute
	// time (1.0 = perfectly balanced; see metrics.Recorder.ComputeSkew).
	Skew float64
}

// RunUtilization executes one algorithm and aggregates the per-partition
// time decomposition.
func RunUtilization(ds *Dataset, algo string, k int, cfg bsp.Config, seed int64) (*UtilizationReport, error) {
	_, rec, err := RunAlgo(ds, algo, k, cfg, seed)
	if err != nil {
		return nil, err
	}
	return &UtilizationReport{
		Algo: algo, Graph: ds.Name, K: k,
		Utils: rec.Utilizations(), Skew: rec.ComputeSkew(),
	}, nil
}

// RenderUtilization writes Fig 7b/7d as text.
func RenderUtilization(w io.Writer, ur *UtilizationReport) {
	fmt.Fprintf(w, "== Fig 7: compute vs overhead per partition, %s on %s (%d parts) ==\n", ur.Algo, ur.Graph, ur.K)
	fmt.Fprintf(w, "%10s %10s %12s %10s\n", "partition", "compute%", "part-ovhd%", "sync%")
	for _, u := range ur.Utils {
		fmt.Fprintf(w, "%10d %9.1f%% %11.1f%% %9.1f%%\n",
			u.Partition, u.ComputeFrac()*100, u.FlushFrac()*100, u.BarrierFrac()*100)
	}
	if ur.Skew > 0 {
		fmt.Fprintf(w, "compute skew (max/median partition): %.2fx\n", ur.Skew)
	}
}
