package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/service"
	"sciview/internal/trace"
)

// fit accumulates, for the queries one engine ran, the Section 5 terms the
// planner predicted for that engine and what the run measured.
type fit struct {
	n       int64
	pred    costmodel.Breakdown
	obs     engine.Observed
	elapsed time.Duration
}

// tally is one reader's accounting over the window; readers keep their
// own and the window merges them, so the hot loop takes no locks.
type tally struct {
	lats                        []time.Duration
	ends                        []time.Duration // completion offsets from the window start
	attempted, failed, wrong    int64
	inexact                     int64
	queueWait                   time.Duration
	degraded, joins, gh         int64
	resultRows                  int64
	unitsJoined, unitsTotal     int64 // IJ runs
	phases                      map[string]time.Duration
	opSelf                      map[string]time.Duration
	opRows, opPeak, spillParts  int64
	pinnedChecks, pinnedViolate int64
	fits                        map[string]*fit
	// Span accounting (traced runs): busy time per span kind, and the self
	// time of the benchmark's submit call and of the service's query span.
	kinds                 map[trace.Kind]time.Duration
	events                int64
	submitSelf, querySelf time.Duration
}

func newTally() *tally {
	return &tally{
		phases: make(map[string]time.Duration),
		opSelf: make(map[string]time.Duration),
		fits:   make(map[string]*fit),
		kinds:  make(map[trace.Kind]time.Duration),
	}
}

func (t *tally) merge(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.ends = append(t.ends, o.ends...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.inexact += o.inexact
	t.queueWait += o.queueWait
	t.degraded += o.degraded
	t.joins += o.joins
	t.gh += o.gh
	t.resultRows += o.resultRows
	t.unitsJoined += o.unitsJoined
	t.unitsTotal += o.unitsTotal
	for k, v := range o.phases {
		t.phases[k] += v
	}
	for k, v := range o.opSelf {
		t.opSelf[k] += v
	}
	t.opRows += o.opRows
	t.opPeak += o.opPeak
	t.spillParts += o.spillParts
	t.pinnedChecks += o.pinnedChecks
	t.pinnedViolate += o.pinnedViolate
	for k, f := range o.fits {
		g := t.fits[k]
		if g == nil {
			g = &fit{}
			t.fits[k] = g
		}
		g.n += f.n
		g.pred = addBreakdown(g.pred, f.pred)
		g.obs.Merge(f.obs)
		g.elapsed += f.elapsed
	}
	for k, v := range o.kinds {
		t.kinds[k] += v
	}
	t.events += o.events
	t.submitSelf += o.submitSelf
	t.querySelf += o.querySelf
}

func addBreakdown(a, b costmodel.Breakdown) costmodel.Breakdown {
	return costmodel.Breakdown{
		Transfer: a.Transfer + b.Transfer, Write: a.Write + b.Write, Read: a.Read + b.Read,
		Build: a.Build + b.Build, Lookup: a.Lookup + b.Lookup, Total: a.Total + b.Total,
	}
}

// record folds one completed response into the tally.
func (t *tally) record(resp *service.Response) {
	t.queueWait += resp.QueueWait
	if resp.Degraded {
		t.degraded++
	}
	if resp.Rows != nil {
		t.resultRows += int64(resp.Rows.NumRows())
	}
	res, dec := resp.Result, resp.Decision
	if res == nil || dec == nil {
		return
	}
	t.joins++
	pred := dec.PredictIJ
	if dec.Chosen == "gh" {
		t.gh++
		pred = dec.PredictGH
		for k, v := range res.Phases {
			t.phases[k] += v
		}
	} else {
		t.unitsJoined += res.UnitsJoined
		t.unitsTotal += res.UnitsTotal
	}
	f := t.fits[dec.Chosen]
	if f == nil {
		f = &fit{}
		t.fits[dec.Chosen] = f
	}
	f.n++
	f.pred = addBreakdown(f.pred, pred)
	f.obs.Merge(res.Observed)
	f.elapsed += res.Elapsed
	// Operators are listed root first down a single chain, and each one's
	// busy time includes its child's: self time is the difference.
	for i, op := range res.Operators {
		self := op.Busy
		if i+1 < len(res.Operators) {
			self -= res.Operators[i+1].Busy
		}
		t.opSelf[opKind(op.Op)] += self
		t.opRows += op.Rows
		t.opPeak += op.PeakBytes
		t.spillParts += op.SpillParts
	}
}

// opKind maps an operator description such as "Limit(64)" or
// "Join[ij](...)" to "limit" or "join".
func opKind(desc string) string {
	if i := strings.IndexAny(desc, "(["); i >= 0 {
		desc = desc[:i]
	}
	return strings.ToLower(desc)
}

// drain folds the spans one query left in a reader's recorder into the
// tally. lat is the benchmark-timed duration of the submit call.
func (t *tally) drain(rec *trace.Recorder, lat time.Duration, resp *service.Response) {
	events := rec.Events()
	rec.Reset()
	var queue, query time.Duration
	for _, ev := range events {
		t.kinds[ev.Kind] += ev.Dur
		switch ev.Kind {
		case trace.KindQueue:
			queue += ev.Dur
		case trace.KindQuery:
			query += ev.Dur
		}
	}
	t.events += int64(len(events))
	t.submitSelf += lat - queue - query
	if resp.Result != nil && len(resp.Result.Operators) > 0 {
		t.querySelf += query - resp.Result.Operators[0].Busy
	}
}

// writerTally is the ingest writer's accounting.
type writerTally struct {
	appends, refreshes []time.Duration
	lags               []time.Duration
	refreshRows        []int64
	attempted, failed  int64
	wrong              int64
}

// snapshot is the cluster- and process-level counters read at the window's
// edges; the window reports their differences.
type snapshot struct {
	at         time.Time
	cache      cache.Stats
	flight     cache.FlightStats
	traffic    cluster.Traffic
	net, disk  time.Duration // modeled busy time of the simio throttles
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseTotal uint64
	fetchEnc   float64
	fetchDec   float64
	fetchCount float64
}

func (e *env) snap() snapshot {
	cl := e.sys.Cluster()
	s := snapshot{at: time.Now(), flight: cl.FlightStats(), traffic: cl.Traffic()}
	for _, cn := range cl.Compute {
		st := cn.Cache.Stats()
		s.cache.Hits += st.Hits
		s.cache.Misses += st.Misses
		s.cache.Evictions += st.Evictions
		s.net += cn.NIC.Throttle().BusyTime()
		s.disk += cn.Scratch.ReadThrottle().BusyTime() + cn.Scratch.WriteThrottle().BusyTime()
	}
	for _, sn := range cl.Storage {
		s.disk += sn.Disk.ReadThrottle().BusyTime()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.pauseTotal = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	for _, smp := range e.reg.Snapshot() {
		switch smp.Name {
		case "sciview_fetch_encoded_bytes_total":
			s.fetchEnc = smp.Value
		case "sciview_fetch_decoded_bytes_total":
			s.fetchDec = smp.Value
		case "sciview_fetch_total":
			s.fetchCount = smp.Value
		}
	}
	return s
}

// window is everything one measured run produced.
type window struct {
	readers       *tally
	writer        *writerTally
	before, after snapshot
	elapsed       time.Duration
	// blockLen is the length of the window's blocks and peakHeap the
	// largest live-heap reading in each.
	blockLen time.Duration
	peakHeap []uint64
}

// blocks is how many equal time slices a window is cut into; end-to-end
// timings are reported as the median over the slices, so a burst of
// host contention in a few of them does not move the result.
const blocks = 10

// measure drives the workload for d: every reader submits closed-loop until
// the deadline (a query in flight at the deadline completes and counts),
// and the ingest writer, if any, commits its batches on a fixed schedule.
func (e *env) measure(d time.Duration) *window {
	w := &window{readers: newTally(), writer: &writerTally{}, blockLen: d / blocks, peakHeap: make([]uint64, blocks)}
	runtime.GC()
	w.before = e.snap()
	start := w.before.at
	deadline := start.Add(d)
	stopSampler := sampleHeap(start, w.blockLen, w.peakHeap)
	ctx := context.Background()

	tallies := make([]*tally, len(e.execs))
	var wg sync.WaitGroup
	for c := range e.execs {
		tallies[c] = newTally()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.reader(ctx, c, start, deadline, tallies[c])
		}(c)
	}
	if e.w.steps > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.write(start, d, w.writer)
		}()
	}
	wg.Wait()
	w.after = e.snap()
	w.elapsed = w.after.at.Sub(start)
	stopSampler()
	for _, t := range tallies {
		w.readers.merge(t)
	}
	return w
}

// reader is one closed-loop client.
func (e *env) reader(ctx context.Context, c int, start, deadline time.Time, t *tally) {
	ex, rec, seq := e.execs[c], e.recs[c], e.seqs[c]
	pinned := e.pinned
	pinned.Req.Trace = rec
	for k := 0; time.Now().Before(deadline); k++ {
		idx := seq[k%len(seq)]
		t.attempted++
		vlo := e.sys.DatasetVersion()
		begin := time.Now()
		var resp *service.Response
		var err error
		if idx == pinnedIdx {
			resp, err = e.svc.Submit(ctx, pinned)
		} else {
			resp, err = e.svc.SubmitSQL(ctx, ex, service.SQL{Query: e.corpus[idx].sql})
		}
		end := time.Now()
		lat := end.Sub(begin)
		if err != nil {
			t.failed++
			rec.Reset()
			continue
		}
		vhi := e.sys.DatasetVersion()
		t.lats = append(t.lats, lat)
		t.ends = append(t.ends, end.Sub(start))
		t.record(resp)
		if rec != nil {
			t.drain(rec, lat, resp)
		}
		if idx == pinnedIdx {
			t.pinnedChecks++
			if resp.Result.Tuples != e.pinnedTuples {
				t.pinnedViolate++
			}
			continue
		}
		switch e.judgeSQL(idx, resp, vlo, vhi) {
		case inexact:
			t.inexact++
		case wrong:
			t.wrong++
		}
	}
}

// write commits the withheld batches open-loop, batch i due at
// start + d·(i+1)/(steps+1), and refreshes the live view after each
// commit, checking it against the reference full view at that version.
func (e *env) write(start time.Time, d time.Duration, wt *writerTally) {
	for i, b := range e.batches {
		due := start.Add(d * time.Duration(i+1) / time.Duration(len(e.batches)+1))
		time.Sleep(time.Until(due))
		begin := time.Now()
		wt.lags = append(wt.lags, begin.Sub(due))
		wt.attempted++
		if _, err := e.ingestor.Append(b); err != nil {
			wt.failed++
			continue
		}
		appended := time.Now()
		wt.appends = append(wt.appends, appended.Sub(begin))
		before, _ := e.live.Rows()
		wt.attempted++
		v, err := e.live.Refresh()
		if err != nil {
			wt.failed++
			continue
		}
		wt.refreshes = append(wt.refreshes, time.Since(appended))
		after, _ := e.live.Rows()
		wt.refreshRows = append(wt.refreshRows, int64(after.NumRows()-before.NumRows()))
		// The live view keeps rows in canonical (lexicographic) order, so
		// it must hash like the sorted reference of the full view.
		if rs, ok := e.refs[v]; !ok || fingerprint(after.Columns(), after) != rs.full.sortedFP {
			wt.wrong++
		}
	}
}

// sampleHeap records the largest live-heap reading of each block of
// length blockLen after start (the last block takes everything later),
// sampled every millisecond, until the returned stop function is called.
func sampleHeap(start time.Time, blockLen time.Duration, peaks []uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			b := min(int(time.Since(start)/blockLen), len(peaks)-1)
			peaks[b] = max(peaks[b], s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// blockStats splits the completed queries into the window's blocks by
// completion time and returns the p50 and p95 latency of each non-empty
// block.
func (w *window) blockStats() (p50, p95 []float64) {
	byBlock := make([][]time.Duration, blocks)
	for i, end := range w.readers.ends {
		b := min(int(end/w.blockLen), blocks-1)
		byBlock[b] = append(byBlock[b], w.readers.lats[i])
	}
	for _, lats := range byBlock {
		if len(lats) == 0 {
			continue
		}
		lats = sortDurations(lats)
		p50 = append(p50, ms(quantile(lats, 0.50)))
		p95 = append(p95, ms(quantile(lats, 0.95)))
	}
	return p50, p95
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
