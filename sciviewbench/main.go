// Command sciviewbench is the sciview benchmark. It runs one named
// workload against the concurrent query service for a fixed window,
// checks every result against an IJ reference, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Usage (from the repository root):
//
//	bash sciviewbench/run.sh --workload sql-warm --seed 1 --seconds 20 --trace 0
//
// Workloads: sql-warm, scan-cold, gh-spill, ingest-live (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; it
// reports the median and measures on the last.
const setupReps = 5

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sql-warm, scan-cold, gh-spill or ingest-live")
	seed := flag.Int64("seed", 1, "seed for the dataset, the statement mix and its order")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "sciviewbench: want --workload %v, --seconds >= 1, --trace 0|1\n", workloadOrder)
		return 2
	}

	var e *env
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, *seed, *traced == 1); err != nil {
			fmt.Fprintf(os.Stderr, "sciviewbench: setup %s: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start))
		if *traced == 1 {
			break // set-up time is an end-to-end metric only
		}
	}
	defer e.close()

	win := e.measure(time.Duration(*seconds) * time.Second)
	layers := e.layers(win)
	out := os.Stdout
	fmt.Fprintf(out, "workload %s: seed %d, %d clients, %v window, %d queries, GOMAXPROCS %d\n",
		w.name, *seed, w.clients, win.elapsed.Round(time.Millisecond), len(win.readers.lats), runtime.GOMAXPROCS(0))

	metrics := make(map[string]metric)
	if *traced == 1 {
		if err := e.probe(win, layers); err != nil {
			fmt.Fprintf(os.Stderr, "sciviewbench: probe %s: %v\n", w.name, err)
			return 1
		}
		modelFit(out, w.name, win.readers)
		for _, l := range layerNames {
			metrics[l.name] = metric{layers[l.name], l.unit}
		}
	} else {
		metrics = endToEnd(win, setups)
	}
	printMetrics(out, metrics, win)

	problems := profileProblems(w, win, layers)
	t, wt := win.readers, win.writer
	failed := t.failed + t.wrong + t.pinnedViolate + wt.failed + wt.wrong
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed (%d errors, %d wrong results, %d pinned-read violations, %d writer errors, %d wrong refreshes)",
			failed, t.failed, t.wrong, t.pinnedViolate, wt.failed, wt.wrong))
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "sciviewbench: %s: %s\n", w.name, p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(problems) == 0, t.attempted + wt.attempted, failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sciviewbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// endToEnd computes the user-visible metrics of an untraced window.
// Latency and peak heap are medians over the window's blocks; throughput,
// CPU and allocation are totals over the whole window.
func endToEnd(w *window, setups []time.Duration) map[string]metric {
	b, a := w.before, w.after
	q := float64(len(w.readers.lats))
	p50, p95 := w.blockStats()
	heap := make([]float64, len(w.peakHeap))
	for i, v := range w.peakHeap {
		heap[i] = float64(v) / 1e6
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"query_p50_ms":       {median(p50), "ms"},
		"query_p95_ms":       {median(p95), "ms"},
		"throughput_qps":     {ratio(q, w.elapsed.Seconds()), "1/s"},
		"cpu_ms_per_query":   {ratio(ms(a.cpu-b.cpu), q), "ms"},
		"alloc_mb_per_query": {ratio(float64(a.totalAlloc-b.totalAlloc)/1e6, q), "MB"},
		"peak_heap_mb":       {median(heap), "MB"},
	}
}

// printMetrics writes every metric by name with its unit; timings carry
// the number of samples they summarise.
func printMetrics(out *os.File, m map[string]metric, w *window) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	lats := fmt.Sprintf("%d queries in %d blocks", len(w.readers.lats), blocks)
	samples := map[string]string{
		"query_p50_ms":          lats,
		"query_p95_ms":          lats,
		"peak_heap_mb":          fmt.Sprintf("%d blocks", blocks),
		"setup_s":               fmt.Sprint(setupReps),
		"ingest.refresh_p50_ms": fmt.Sprint(len(w.writer.refreshes)),
		"ingest.append_ms":      fmt.Sprint(len(w.writer.appends)),
	}
	for _, n := range names {
		v := m[n]
		fmt.Fprintf(out, "  %-34s %14.6g %-6s", n, v.Value, v.Unit)
		if s, ok := samples[n]; ok {
			fmt.Fprintf(out, " (n=%s)", s)
		}
		fmt.Fprintln(out)
	}
}
