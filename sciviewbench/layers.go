package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"sciview/internal/metadata"
	"sciview/internal/service"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerNames lists the per-layer metrics in report order with their units.
// Every workload reports all of them; a layer a workload does not cross
// reads 0.
var layerNames = []struct{ name, unit string }{
	{"service.queue_wait_ms", "ms"},
	{"service.degraded_frac", "frac"},
	{"planner.lower_ms", "ms"},
	{"planner.gh_frac", "frac"},
	{"model.total_ratio", "ratio"},
	{"model.transfer_ratio", "ratio"},
	{"model.build_ratio", "ratio"},
	{"model.lookup_ratio", "ratio"},
	{"model.write_ratio", "ratio"},
	{"model.read_ratio", "ratio"},
	{"metadata.lookup_us", "us"},
	{"cache.hit_frac", "frac"},
	{"cache.evictions_per_query", "count"},
	{"cluster.fetch_mb_per_query", "MB"},
	{"cluster.fetch_ms_per_query", "ms"},
	{"cluster.dedup_shared_frac", "frac"},
	{"colenc.wire_frac", "frac"},
	{"colenc.decode_ms_per_query", "ms"},
	{"simio.net_modeled_ms_per_query", "ms"},
	{"simio.disk_modeled_ms_per_query", "ms"},
	{"hashjoin.build_ms_per_query", "ms"},
	{"hashjoin.probe_ms_per_query", "ms"},
	{"hashjoin.build_ns_per_tuple", "ns"},
	{"hashjoin.probe_ns_per_tuple", "ns"},
	{"ij.units_frac", "frac"},
	{"gh.partition_ms_per_query", "ms"},
	{"gh.bucketjoin_ms_per_query", "ms"},
	{"gh.inexact_results", "count"},
	{"plan.scan.busy_ms_per_query", "ms"},
	{"plan.filter.busy_ms_per_query", "ms"},
	{"plan.project.busy_ms_per_query", "ms"},
	{"plan.join.busy_ms_per_query", "ms"},
	{"plan.aggregate.busy_ms_per_query", "ms"},
	{"plan.sort.busy_ms_per_query", "ms"},
	{"plan.limit.busy_ms_per_query", "ms"},
	{"plan.peak_mb", "MB"},
	{"plan.rows_per_result_row", "ratio"},
	{"scratch.spill_mb_per_query", "MB"},
	{"scratch.read_mb_per_query", "MB"},
	{"scratch.write_ms_per_query", "ms"},
	{"scratch.read_ms_per_query", "ms"},
	{"scratch.parts_per_query", "count"},
	{"ingest.append_ms", "ms"},
	{"ingest.refresh_p50_ms", "ms"},
	{"ingest.refresh_rows", "count"},
	{"ingest.schedule_lag_ms", "ms"},
	{"ingest.pinned_violations", "count"},
	{"go.gc_per_query", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.events_per_query", "count"},
	{"trace.submit_self_ms_per_query", "ms"},
	{"trace.query_self_ms_per_query", "ms"},
	{"trace.queue_ms_per_query", "ms"},
	{"trace.fetch_ms_per_query", "ms"},
	{"trace.prefetch_ms_per_query", "ms"},
	{"trace.build_ms_per_query", "ms"},
	{"trace.probe_ms_per_query", "ms"},
	{"trace.ship_ms_per_query", "ms"},
	{"trace.spill_ms_per_query", "ms"},
	{"trace.bucketread_ms_per_query", "ms"},
}

// planOps are the operator kinds the plan.* metrics break busy time into.
var planOps = []string{"scan", "filter", "project", "join", "aggregate", "sort", "limit"}

// spanKinds are the span kinds reported as trace.<kind>_ms_per_query.
var spanKinds = []trace.Kind{
	trace.KindQueue, trace.KindFetch, trace.KindPrefetch, trace.KindBuild,
	trace.KindProbe, trace.KindShip, trace.KindSpill, trace.KindBucketRead,
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers computes the per-layer values of a window. Probe-based values
// (planner.lower_ms, metadata.lookup_us, colenc.decode_ms_per_query,
// trace.overhead_frac) are filled in by probe.
func (e *env) layers(w *window) map[string]float64 {
	t, b, a := w.readers, w.before, w.after
	q := float64(len(t.lats))
	per := func(x float64) float64 { return ratio(x, q) }
	m := make(map[string]float64)

	m["service.queue_wait_ms"] = per(ms(t.queueWait))
	m["service.degraded_frac"] = per(float64(t.degraded))
	m["planner.gh_frac"] = ratio(float64(t.gh), float64(t.joins))

	var obsFetch, obsBuild, obsProbe, buildTuples, probeTuples float64
	var sumPred, sumObs [6]float64
	for _, f := range t.fits {
		p, o := f.pred, f.obs
		sumPred = addTerms(sumPred, [6]float64{p.Total, p.Transfer, p.Build, p.Lookup, p.Write, p.Read})
		sumObs = addTerms(sumObs, [6]float64{f.elapsed.Seconds(), o.FetchSeconds, o.BuildSeconds, o.ProbeSeconds, o.SpillWriteSeconds, o.SpillReadSeconds})
		obsFetch += o.FetchSeconds
		obsBuild += o.BuildSeconds
		obsProbe += o.ProbeSeconds
		buildTuples += float64(o.BuildTuples)
		probeTuples += float64(o.ProbeTuples)
	}
	for i, name := range []string{"total", "transfer", "build", "lookup", "write", "read"} {
		m["model."+name+"_ratio"] = ratio(sumObs[i], sumPred[i])
	}

	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	m["cache.hit_frac"] = ratio(hits, hits+misses)
	m["cache.evictions_per_query"] = per(float64(a.cache.Evictions - b.cache.Evictions))
	m["cluster.fetch_mb_per_query"] = per((a.fetchEnc - b.fetchEnc) / 1e6)
	m["cluster.fetch_ms_per_query"] = per(obsFetch * 1e3)
	shared := float64(a.flight.Shared - b.flight.Shared)
	m["cluster.dedup_shared_frac"] = ratio(shared, shared+float64(a.flight.Leads-b.flight.Leads))
	m["colenc.wire_frac"] = ratio(a.fetchEnc-b.fetchEnc, a.fetchDec-b.fetchDec)
	m["simio.net_modeled_ms_per_query"] = per(ms(a.net - b.net))
	m["simio.disk_modeled_ms_per_query"] = per(ms(a.disk - b.disk))

	m["hashjoin.build_ms_per_query"] = per(obsBuild * 1e3)
	m["hashjoin.probe_ms_per_query"] = per(obsProbe * 1e3)
	m["hashjoin.build_ns_per_tuple"] = ratio(obsBuild*1e9, buildTuples)
	m["hashjoin.probe_ns_per_tuple"] = ratio(obsProbe*1e9, probeTuples)
	m["ij.units_frac"] = ratio(float64(t.unitsJoined), float64(t.unitsTotal))
	m["gh.partition_ms_per_query"] = per(ms(t.phases["partition"]))
	m["gh.bucketjoin_ms_per_query"] = per(ms(t.phases["bucketjoin"]))
	m["gh.inexact_results"] = float64(t.inexact)

	for _, op := range planOps {
		m["plan."+op+".busy_ms_per_query"] = per(ms(t.opSelf[op]))
	}
	m["plan.peak_mb"] = per(float64(t.opPeak) / 1e6)
	m["plan.rows_per_result_row"] = ratio(float64(t.opRows), float64(t.resultRows))
	m["scratch.spill_mb_per_query"] = per(float64(a.traffic.ScratchBytesWritten-b.traffic.ScratchBytesWritten) / 1e6)
	m["scratch.read_mb_per_query"] = per(float64(a.traffic.ScratchBytesRead-b.traffic.ScratchBytesRead) / 1e6)
	m["scratch.write_ms_per_query"] = per(ms(t.kinds[trace.KindSpill]))
	m["scratch.read_ms_per_query"] = per(ms(t.kinds[trace.KindBucketRead]))
	m["scratch.parts_per_query"] = per(float64(t.spillParts))

	wt := w.writer
	m["ingest.append_ms"] = ms(mean(wt.appends))
	m["ingest.refresh_p50_ms"] = ms(quantile(sortDurations(wt.refreshes), 0.5))
	m["ingest.schedule_lag_ms"] = ms(mean(wt.lags))
	var rows int64
	for _, r := range wt.refreshRows {
		rows += r
	}
	m["ingest.refresh_rows"] = ratio(float64(rows), float64(len(wt.refreshRows)))
	m["ingest.pinned_violations"] = float64(t.pinnedViolate)

	gcs := float64(a.numGC - b.numGC)
	m["go.gc_per_query"] = per(gcs)
	m["go.gc_pause_ms"] = ratio(float64(a.pauseTotal-b.pauseTotal)/1e6, gcs)

	m["trace.events_per_query"] = per(float64(t.events))
	m["trace.submit_self_ms_per_query"] = per(ms(t.submitSelf))
	m["trace.query_self_ms_per_query"] = per(ms(t.querySelf))
	for _, k := range spanKinds {
		m["trace."+string(k)+"_ms_per_query"] = per(ms(t.kinds[k]))
	}
	return m
}

func addTerms(a, b [6]float64) [6]float64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s / time.Duration(len(d))
}

// probe measures the layers the window cannot attribute from outside, by
// timing the benchmark's own calls into them after the window, and fills
// their entries of m.
func (e *env) probe(w *window, m map[string]float64) error {
	ex := e.execs[0]
	cat := e.sys.Cluster().Catalog

	// Lowering: parse, catalog resolution, cost model, plan construction.
	const lowerReps = 5
	var lower time.Duration
	for r := 0; r < lowerReps; r++ {
		for _, s := range e.corpus {
			start := time.Now()
			if _, err := ex.Lower(s.sql); err != nil {
				return fmt.Errorf("lower %q: %w", s.sql, err)
			}
			lower += time.Since(start)
		}
	}
	m["planner.lower_ms"] = ms(lower) / float64(lowerReps*len(e.corpus))

	// Catalog / R-tree lookups of each statement's box on both sides.
	const lookupReps = 50
	var lookup time.Duration
	for r := 0; r < lookupReps; r++ {
		for _, s := range e.corpus {
			rng := metadata.Range{}
			for _, sp := range s.box {
				rng.Attrs = append(rng.Attrs, sp.attr)
				rng.Lo = append(rng.Lo, sp.lo)
				rng.Hi = append(rng.Hi, sp.hi)
			}
			start := time.Now()
			for _, table := range []string{"T1", "T2"} {
				if _, err := cat.ChunksInRange(table, rng); err != nil {
					return fmt.Errorf("lookup %q: %w", s.sql, err)
				}
			}
			lookup += time.Since(start)
		}
	}
	m["metadata.lookup_us"] = float64(lookup) / float64(time.Microsecond) / float64(lookupReps*len(e.corpus))

	// Wire decode: every chunk fetched once in wire form, then decoded.
	// A compressed cached sub-table is decoded on every access (hit or
	// miss), so the per-query cost scales the measured rate by the bytes
	// of all accesses.
	nsPerByte, err := e.decodeRate()
	if err != nil {
		return err
	}
	t, b, a := w.readers, w.before, w.after
	decoded := a.fetchDec - b.fetchDec
	if misses := float64(a.cache.Misses - b.cache.Misses); misses > 0 {
		decoded *= (misses + float64(a.cache.Hits-b.cache.Hits)) / misses
	}
	m["colenc.decode_ms_per_query"] = ratio(nsPerByte*decoded/1e6, float64(len(t.lats)))

	over, err := e.traceOverhead()
	if err != nil {
		return err
	}
	m["trace.overhead_frac"] = over
	return nil
}

// decodeRate fetches every base chunk of both tables to compute node 0 in
// the cluster's wire form and times decoding it, in ns per decoded byte.
func (e *env) decodeRate() (float64, error) {
	cl := e.sys.Cluster()
	var dur time.Duration
	var bytes int64
	for _, table := range []string{"T1", "T2"} {
		def, err := cl.Catalog.Table(table)
		if err != nil {
			return 0, err
		}
		for i := range cl.Catalog.Chunks(def.ID) {
			id := tuple.ID{Table: def.ID, Chunk: int32(i)}
			f, err := cl.FetchEncoded(context.Background(), 0, id, nil, nil)
			if err != nil {
				return 0, fmt.Errorf("fetch %v: %w", id, err)
			}
			start := time.Now()
			if _, err := f.SubTable(); err != nil {
				return 0, fmt.Errorf("decode %v: %w", id, err)
			}
			dur += time.Since(start)
			bytes += int64(f.DecodedBytes())
		}
	}
	return ratio(float64(dur), float64(bytes)), nil
}

// traceOverhead runs each corpus statement in pairs, once through an
// untraced and once through a traced executor, alternating which goes
// first so drift cancels, and reports the median of the pairs' traced /
// untraced latency ratios minus 1.
func (e *env) traceOverhead() (float64, error) {
	plain, traced := e.svc.Executor(), e.svc.Executor()
	traced.Trace = trace.New()
	if _, err := plain.Exec(viewDDL); err != nil {
		return 0, err
	}
	if _, err := traced.Exec(viewDDL); err != nil {
		return 0, err
	}
	const passes = 10
	var ratios []float64
	ctx := context.Background()
	for r := 0; r < passes; r++ {
		for _, s := range e.corpus {
			var lat [2]time.Duration
			for k := 0; k < 2; k++ {
				side := (k + r) % 2
				ex := plain
				if side == 1 {
					ex = traced
				}
				start := time.Now()
				if _, err := e.svc.SubmitSQL(ctx, ex, service.SQL{Query: s.sql}); err != nil {
					return 0, fmt.Errorf("overhead %q: %w", s.sql, err)
				}
				lat[side] = time.Since(start)
			}
			traced.Trace.Reset()
			ratios = append(ratios, ratio(float64(lat[1]), float64(lat[0])))
		}
	}
	return median(ratios) - 1, nil
}

// modelFit prints the Section 5 model-fit table: for each engine the
// workload ran, every cost term next to the layer that realises it, with
// predicted and measured time per query and their ratio.
func modelFit(out io.Writer, name string, t *tally) {
	for _, eng := range []string{"ij", "gh"} {
		f := t.fits[eng]
		if f == nil || f.n == 0 {
			continue
		}
		n := float64(f.n)
		fmt.Fprintf(out, "model fit: workload %s, engine %s, %d queries (ms per query)\n", name, eng, f.n)
		fmt.Fprintf(out, "  %-9s %-34s %10s %10s %8s\n", "term", "layer", "predicted", "measured", "ratio")
		rows := []struct {
			term, layer string
			pred, obs   float64
		}{
			{"transfer", "cluster fetch / GH scan+ship", f.pred.Transfer, f.obs.FetchSeconds},
			{"write", "scratch spill write", f.pred.Write, f.obs.SpillWriteSeconds},
			{"read", "scratch spill read", f.pred.Read, f.obs.SpillReadSeconds},
			{"build", "hashjoin build", f.pred.Build, f.obs.BuildSeconds},
			{"lookup", "hashjoin probe", f.pred.Lookup, f.obs.ProbeSeconds},
			{"total", "engine elapsed", f.pred.Total, f.elapsed.Seconds()},
		}
		for _, r := range rows {
			fmt.Fprintf(out, "  %-9s %-34s %10.4f %10.4f %8.3f\n",
				r.term, r.layer, r.pred*1e3/n, r.obs*1e3/n, ratio(r.obs, r.pred))
		}
	}
}
