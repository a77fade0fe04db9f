package main

import "fmt"

// expectation is one layer-profile self-check: a workload must stress the
// layers it is named for and bypass the ones it is not, so configuration
// drift that silently changes what a workload measures fails the run.
type expectation struct {
	metric string
	holds  func(v float64) bool
	want   string
}

func atLeast(x float64) expectation {
	return expectation{holds: func(v float64) bool { return v >= x }, want: fmt.Sprintf(">= %g", x)}
}
func atMost(x float64) expectation {
	return expectation{holds: func(v float64) bool { return v <= x }, want: fmt.Sprintf("<= %g", x)}
}
func above(x float64) expectation {
	return expectation{holds: func(v float64) bool { return v > x }, want: fmt.Sprintf("> %g", x)}
}
func equal(x float64) expectation {
	return expectation{holds: func(v float64) bool { return v == x }, want: fmt.Sprintf("= %g", x)}
}

func on(metric string, e expectation) expectation {
	e.metric = metric
	return e
}

// profiles lists each workload's layer expectations. The values come from
// counters every run collects, traced or not.
var profiles = map[string][]expectation{
	"sql-warm": {
		on("cache.hit_frac", atLeast(0.95)),
		on("scratch.spill_mb_per_query", equal(0)),
		on("simio.net_modeled_ms_per_query", equal(0)),
		on("service.degraded_frac", equal(0)),
		on("planner.gh_frac", equal(0)),
		on("ij.units_frac", atMost(0.99)), // the LIMIT statement exits early
	},
	"scan-cold": {
		on("cache.hit_frac", atMost(0.6)),
		on("cache.evictions_per_query", above(0)),
		on("colenc.wire_frac", atMost(0.9)),
		on("simio.net_modeled_ms_per_query", above(0)),
		on("scratch.spill_mb_per_query", equal(0)),
	},
	"gh-spill": {
		on("planner.gh_frac", equal(1)),
		on("service.degraded_frac", equal(1)),
		on("scratch.spill_mb_per_query", above(0)),
		on("scratch.read_mb_per_query", above(0)),
		on("scratch.parts_per_query", above(0)),
	},
	"ingest-live": {
		on("ingest.pinned_violations", equal(0)),
		on("ingest.refresh_rows", above(0)),
		on("scratch.spill_mb_per_query", equal(0)),
	},
}

// profileProblems checks the workload's layer profile and its ingest
// schedule, returning one line per violated expectation.
func profileProblems(w *workload, win *window, layers map[string]float64) []string {
	var out []string
	for _, x := range profiles[w.name] {
		if v := layers[x.metric]; !x.holds(v) {
			out = append(out, fmt.Sprintf("layer profile: %s = %g, want %s", x.metric, v, x.want))
		}
	}
	if len(win.readers.lats) == 0 {
		out = append(out, "no query completed in the window")
	}
	if w.steps > 0 {
		if n := len(win.writer.refreshes); n != w.steps {
			out = append(out, fmt.Sprintf("ingest: %d of %d scheduled steps refreshed", n, w.steps))
		}
		if win.readers.pinnedChecks == 0 {
			out = append(out, "ingest: no pinned read ran in the window")
		}
	}
	return out
}
