package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload run: metrics by name and unit, per-phase
// operation counts, wrong answers, and human-readable notes.
type report struct {
	workload string
	seed     int64
	metrics  map[string]metricValue
	order    []string
	notes    []string
	wrong    []string

	// attempted and failed are the operations that count toward the
	// failure share: the nominal-rate phase and the offline jobs. Wrong
	// answers anywhere are added to failed.
	attempted, failed int
}

func newReport(workload string, seed int64) *report {
	return &report{workload: workload, seed: seed, metrics: map[string]metricValue{}}
}

// saveTrace writes the traced run's spans as a Chrome trace under
// .bench_build/ and names the file in the report.
func (r *report) saveTrace(log *spanLog) {
	path := fmt.Sprintf(".bench_build/trace-%s-%d.json", r.workload, r.seed)
	if err := log.writeChrome(path, map[string]any{"workload": r.workload, "seed": r.seed}); err != nil {
		r.note("chrome trace not written: %v", err)
		return
	}
	r.note("chrome trace of the benchmark's spans: %s", path)
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase records one phase's sent/succeeded/failed counts and its wrong
// answers; counted phases also enter the failure share.
func (r *report) phase(ps *phaseStats, counted bool) {
	r.note("phase %-16s offered %7.1f/s: sent %d, succeeded %d, failed %d, not sent %d",
		ps.name, ps.offeredRate, ps.sent, ps.ok, ps.failed, ps.notSent)
	r.wrong = append(r.wrong, ps.wrong...)
	if counted {
		r.attempted += ps.sent + ps.notSent
		r.failed += ps.failed + ps.notSent
	} else {
		r.failed += len(ps.wrong)
	}
}

// setLatency sets latency_p50_ms from the sorted latencies of the
// workload's operations and notes the tail percentiles that have at
// least minTail samples beyond them. The tail is not a metric: on a
// shared host it moves with the neighbours' load more than with the code.
func (r *report) setLatency(what string, lat []time.Duration) {
	if !percentileOK(len(lat), 50) {
		r.note("%s: %d samples are fewer than a p50 needs", what, len(lat))
	}
	r.set("latency_p50_ms", "ms", ms(quantile(lat, 50)))
	line := fmt.Sprintf("%s latency over %d samples: p50 %.3f ms", what, len(lat), ms(quantile(lat, 50)))
	for _, p := range []float64{90, 99} {
		if percentileOK(len(lat), p) {
			line += fmt.Sprintf(", p%.0f %.3f ms", p, ms(quantile(lat, p)))
		}
	}
	r.note("%s", line)
}

// mismatch records a wrong answer found outside an open-loop phase.
func (r *report) mismatch(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	r.failed++
}

// print writes the human-readable report to stdout.
func (r *report) print() {
	fmt.Printf("== workload %s ==\n", r.workload)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, w := range r.wrong {
		fmt.Println("WRONG:", w)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("operations: attempted %d, failed %d, wrong answers %d\n", r.attempted, r.failed, len(r.wrong))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	return result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

func printResult(res result) {
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// envelope prints what the numbers depend on besides the code.
func envelope(workload string, seed int64, seconds int, trace bool) {
	sha := "unknown (not a git checkout)"
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for a repository in the working directory only, never above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	fmt.Printf("perfbench: workload %s, seed %d, %ds measured, trace %v\n", workload, seed, seconds, trace)
	fmt.Printf("perfbench: nproc %d, GOMAXPROCS %d, %s %s/%s, git %s, started %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		sha, time.Now().UTC().Format(time.RFC3339))
	fmt.Println("perfbench: fsync and loopback latencies are this host's (a container's, not a device's);" +
		" flush policy: set-up writes datasets without fsync (gofs.WriteDatasetOptions); a live append fsyncs" +
		" its slices, the manifest and the WAL before it is acknowledged (group commit, no window)")
}
