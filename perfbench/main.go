// Command perfbench is the repository benchmark: it builds each workload
// from a seed, drives the system only through the public functions of
// its modules (partition, gofs, core/bsp/algorithms, serve, ingest),
// checks every answer against a reference computed from the generated
// in-memory data, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones of a traced run, and the
// benchmark's spans are written as a Chrome trace under .bench_build/.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = []struct {
	name string
	run  func(r *report, seed int64, seconds time.Duration, trace bool) error
}{
	{"offline-paper", runOffline},
	{"serve-hot", runServe},
	{"ingest-live", runIngest},
}

func main() {
	workload := flag.String("workload", "", "workload to run: offline-paper | serve-hot | ingest-live | all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	var names []string
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		if *workload != w.name && *workload != "all" {
			continue
		}
		envelope(w.name, *seed, *seconds, *trace == 1)
		r := newReport(w.name, *seed)
		if err := w.run(r, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if *trace == 1 {
			completeLayers(r)
		} else {
			checkEndToEnd(r)
		}
		r.print()
		res := r.result()
		if *workload != "all" {
			printResult(res)
			return
		}
		printResult(res)
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[w.name+"/"+k] = v
		}
	}
	printResult(combined)
}

// endToEnd lists every end-to-end metric with its unit; an untraced run
// of any workload prints all of them, each above 0. The latency is of the
// workload's operation: a round of the three offline jobs on
// offline-paper, a query on serve-hot and ingest-live.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"resident_heap_mb", "MiB"}, {"latency_p50_ms", "ms"},
}

// checkEndToEnd stops the run without a result when an untraced run did
// not measure exactly the end-to-end metrics, or measured one as 0.
func checkEndToEnd(r *report) {
	for _, m := range endToEnd {
		if v, ok := r.metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s (%s) missing or not above 0: %+v\n", r.workload, m.name, m.unit, v)
			os.Exit(1)
		}
	}
	if len(r.metrics) != len(endToEnd) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d metrics measured, %d end-to-end metrics listed\n", r.workload, len(r.metrics), len(endToEnd))
		os.Exit(1)
	}
}

// perLayer lists every per-layer metric with its unit; a traced run of
// any workload prints all of them. A layer a workload does not pass
// through reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"partition.setup_s", "s"}, {"gofs.write_s", "s"}, {"gofs.open_s", "s"},
	{"serve.ready_s", "s"},
	{"gofs.load_ms", "ms"}, {"gofs.loads", "count"}, {"gofs.pack_decodes", "count"},
	{"gofs.decode_ms", "ms"}, {"gofs.cache_hit_ratio", "1"}, {"gofs.cache_lookups", "count"},
	{"gofs.bytes_read", "B"},
	{"core.job_ms", "ms"}, {"bsp.supersteps", "count"}, {"bsp.messages", "count"},
	{"bsp.compute_ms", "ms"}, {"bsp.flush_ms", "ms"}, {"bsp.barrier_ms", "ms"}, {"bsp.sweeps", "count"},
	{"serve.handler_ms", "ms"}, {"serve.transport_ms", "ms"}, {"serve.queue_ms", "ms"},
	{"serve.sweep_ms", "ms"}, {"serve.sweeps_per_query", "1"}, {"serve.batch_size", "1"},
	{"serve.result_hit_ratio", "1"}, {"serve.result_lookups", "count"}, {"serve.rejected", "count"},
	{"ingest.handler_ms", "ms"}, {"ingest.validate_ms", "ms"}, {"ingest.wal_ms", "ms"},
	{"ingest.fold_ms", "ms"}, {"ingest.publish_ms", "ms"}, {"ingest.fsyncs_per_append", "1"},
	{"ingest.appends", "count"},
	{"loadgen.late_p99_ms", "ms"}, {"trace.overhead_pct", "%"}, {"trace.ops", "count"}, {"trace.e2e_ms", "ms"},
	{"self.loadgen_ms", "ms"}, {"self.transport_ms", "ms"}, {"self.serve_ms", "ms"},
	{"self.core_ms", "ms"}, {"self.gofs_ms", "ms"}, {"self.ingest_ms", "ms"}, {"self.unattributed_ms", "ms"},
	{"share.repeat", "1"}, {"share.coalesced", "1"}, {"share.decode_loads", "1"}, {"share.fresh_reads", "1"},
}

// completeLayers sets every per-layer metric the workload did not touch
// to 0, so a traced run always prints the full set.
func completeLayers(r *report) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
	for name := range r.metrics {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not in the per-layer list\n", name)
			os.Exit(1)
		}
	}
	if t := r.metrics["trace.e2e_ms"].Value; t > 0 {
		r.note("check: layers + unattributed = %s ms/op = trace.e2e_ms %.4f", layerSum(r), t)
	}
}

func layerSum(r *report) string {
	sum := 0.0
	var parts []string
	for _, l := range append(attributionLayers, "unattributed") {
		v := r.metrics["self."+l+"_ms"].Value
		sum += v
		parts = append(parts, fmt.Sprintf("%.4f", v))
	}
	return fmt.Sprintf("%s = %.4f", strings.Join(parts, " + "), sum)
}
