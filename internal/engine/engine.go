// Package engine defines the common contract of the Query Execution
// Systems (QES): the request describing a join-view scan and the result
// with its timing, tuple counts and accounting. The two implementations —
// the page-level Indexed Join (internal/ij) and Grace Hash
// (internal/gh) — both execute queries of the form
//
//	SELECT * FROM V WHERE <ranges>,   V = Left ⊕<attrs> Right
//
// against an emulated cluster.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/metadata"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Request describes one join-view execution.
type Request struct {
	// LeftTable and RightTable name the joined virtual tables; LeftTable
	// is the build (inner) side.
	LeftTable  string
	RightTable string
	// JoinAttrs are the equi-join attributes (e.g. x, y, z).
	JoinAttrs []string
	// Filter is an optional range selection applied to the view.
	Filter metadata.Range
	// Project lists the view output attributes the caller needs (nil =
	// all). Engines push the projection down to the BDS — join attributes
	// are always retained — so unneeded columns never travel.
	Project []string
	// WorkFactor repeats hash build/probe operations to emulate a slower
	// CPU (>=1; the paper's Figure 8 technique).
	WorkFactor int
	// Trace, when non-nil, records per-operation execution events
	// (fetches, builds, probes, spills) for offline analysis.
	Trace *trace.Recorder
	// Shared runs the query without exclusive ownership of the cluster:
	// no state reset at start, shared sub-table caches, and concurrent
	// execution alongside other shared queries. The concurrent query
	// service sets this; Result.Traffic and Result.Cache then report
	// cumulative cluster counters rather than this query's share.
	Shared bool
	// Prefetch is the IJ joiner's lookahead depth: while edge i builds and
	// probes, the fetches for the sub-tables of edges i+1..i+Prefetch are
	// issued in the background (through the singleflight cache), hiding
	// network latency behind CPU work. 0 disables prefetching (the strict
	// fetch→build→probe loop); DefaultPrefetch is what the CLI flags use.
	// Prefetching changes overlap only — results, cost-model counters and
	// per-fetch miss accounting are identical either way.
	Prefetch int
	// Parallelism bounds the hash-join kernel workers per build/probe:
	// 0 = all CPUs, 1 = serial, n = at most n goroutines. Small sub-tables
	// run serially regardless. Output is byte-identical for every setting.
	Parallelism int
	// Sink, when non-nil, streams result batches out of the join as they
	// are produced: IJ emits after each edge probe, GH after each
	// bucket-pair join. Batches are grouped by "part" (the IJ slot or GH
	// group index) so a consumer can re-establish the deterministic
	// slot/group order. Emitted sub-tables are owned by the sink; the
	// engine allocates a fresh output table after each emit. Without a
	// sink the engine only counts result tuples and drops the rows, as
	// the paper's queries enumerate the view without storing it.
	Sink Sink
	// Progress, when non-nil, is updated with schedule-unit counts (IJ
	// edges / GH bucket pairs) as the run proceeds. The counters survive
	// an error return, so an early-terminated query can report how much of
	// the join it actually executed.
	Progress *Progress
	// AsOf pins chunk resolution to a catalog version for snapshot-isolated
	// reads: both sides see exactly the chunks committed at or before AsOf,
	// so appends that land mid-query never perturb the result. 0 means
	// "current" (unpinned). The query service stamps this at admission.
	AsOf int64
	// LeftVersions and RightVersions narrow each side to a window of append
	// versions (delta-join view maintenance resolves "only the chunks of
	// batch v" this way). A zero window is unconstrained. When set, the
	// window's Until — if zero — inherits AsOf, so deltas compose with
	// snapshot pins.
	LeftVersions  metadata.VersionWindow
	RightVersions metadata.VersionWindow
	// MemoryBudget bounds the engine's in-memory join state in bytes
	// (0 = unbounded). Each per-node QES divides its share of the budget
	// between the two sub-tables of a pair; a build side over its share
	// is partitioned to the node's scratch disk and joined leaf by leaf,
	// byte-identical to the in-memory join. The plan layer stamps this
	// from the query's admission budget share.
	MemoryBudget int64
}

// LeftWindow returns the effective version window for the left side:
// LeftVersions with an unset Until defaulting to AsOf.
func (r Request) LeftWindow() metadata.VersionWindow {
	return effectiveWindow(r.LeftVersions, r.AsOf)
}

// RightWindow returns the effective version window for the right side.
func (r Request) RightWindow() metadata.VersionWindow {
	return effectiveWindow(r.RightVersions, r.AsOf)
}

func effectiveWindow(w metadata.VersionWindow, asOf int64) metadata.VersionWindow {
	if w.Until == 0 {
		w.Until = asOf
	}
	return w
}

// Sink consumes streamed join output. Engines call Emit from the
// goroutine that owns the part (one goroutine per part at any time), Done
// exactly once when a part's final attempt has produced all its batches,
// and Discard when a failed attempt's output must be thrown away before a
// replay (fault-tolerant re-execution). Emit may block to bound buffered
// memory; it returns an error once the consumer has gone away, which the
// engine surfaces as a failed run.
type Sink interface {
	Emit(part int, batch *tuple.SubTable) error
	Done(part int)
	Discard(part int)
}

// Progress counts join schedule units: edges for IJ, top-level bucket
// pairs for GH. Total is set once the schedule is known; Joined is
// incremented as units complete. Both are safe for concurrent readers
// while a run is in flight.
type Progress struct {
	Joined atomic.Int64
	Total  atomic.Int64
}

// Observed is the run's measured resource costs, the feedback the online
// cost-model calibration layer consumes (costmodel.Estimator): how many
// bytes actually moved storage→compute and how long the wire was busy,
// how many hash build/probe operations ran and their wall-clock cost
// (including the emulated CPU charge), and GH's scratch spill traffic.
// Seconds are summed per-stream busy time: with n concurrent fetchers a
// run accumulates n× wall time, so Bytes/Seconds is the *per-stream*
// effective rate, which is what the models' aggregate terms scale up by
// node count. All fields are zero for runs that skipped the stage.
type Observed struct {
	// FetchBytes/FetchSeconds cover storage→compute transfers: decoded
	// payload bytes against wire-busy seconds (disk read + transport), so
	// compression shows up as higher effective bandwidth.
	FetchBytes   int64
	FetchSeconds float64
	// BuildTuples/ProbeTuples count hash operations (rows × WorkFactor);
	// Seconds span the kernel plus the modeled-CPU charge, so the derived
	// α constants track the emulated processor, not just the host.
	BuildTuples  int64
	BuildSeconds float64
	ProbeTuples  int64
	ProbeSeconds float64
	// Spill{Write,Read} cover GH's scratch bucket traffic per joiner.
	SpillWriteBytes   int64
	SpillWriteSeconds float64
	SpillReadBytes    int64
	SpillReadSeconds  float64
}

// Merge accumulates another run's observations (regret replays fold the
// forced runs' measurements into one feedback record).
func (o *Observed) Merge(b Observed) {
	o.FetchBytes += b.FetchBytes
	o.FetchSeconds += b.FetchSeconds
	o.BuildTuples += b.BuildTuples
	o.BuildSeconds += b.BuildSeconds
	o.ProbeTuples += b.ProbeTuples
	o.ProbeSeconds += b.ProbeSeconds
	o.SpillWriteBytes += b.SpillWriteBytes
	o.SpillWriteSeconds += b.SpillWriteSeconds
	o.SpillReadBytes += b.SpillReadBytes
	o.SpillReadSeconds += b.SpillReadSeconds
}

// ObsCollector accumulates Observed fields from the engines' concurrent
// workers (atomically, nanosecond-granular). A nil collector is a valid
// no-op, so call sites stay unconditional.
type ObsCollector struct {
	fetchBytes, fetchNanos           atomic.Int64
	buildTuples, buildNanos          atomic.Int64
	probeTuples, probeNanos          atomic.Int64
	spillWriteBytes, spillWriteNanos atomic.Int64
	spillReadBytes, spillReadNanos   atomic.Int64
}

// Fetch records one storage→compute transfer.
func (o *ObsCollector) Fetch(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.fetchBytes.Add(bytes)
	o.fetchNanos.Add(int64(d))
}

// Build records one hash-table build of ops operations.
func (o *ObsCollector) Build(ops int64, d time.Duration) {
	if o == nil {
		return
	}
	o.buildTuples.Add(ops)
	o.buildNanos.Add(int64(d))
}

// Probe records one probe pass of ops operations.
func (o *ObsCollector) Probe(ops int64, d time.Duration) {
	if o == nil {
		return
	}
	o.probeTuples.Add(ops)
	o.probeNanos.Add(int64(d))
}

// SpillWrite records one scratch bucket write.
func (o *ObsCollector) SpillWrite(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.spillWriteBytes.Add(bytes)
	o.spillWriteNanos.Add(int64(d))
}

// SpillRead records one scratch bucket read.
func (o *ObsCollector) SpillRead(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.spillReadBytes.Add(bytes)
	o.spillReadNanos.Add(int64(d))
}

// Snapshot converts the accumulated counters to an Observed record.
func (o *ObsCollector) Snapshot() Observed {
	if o == nil {
		return Observed{}
	}
	const ns = float64(time.Second)
	return Observed{
		FetchBytes:        o.fetchBytes.Load(),
		FetchSeconds:      float64(o.fetchNanos.Load()) / ns,
		BuildTuples:       o.buildTuples.Load(),
		BuildSeconds:      float64(o.buildNanos.Load()) / ns,
		ProbeTuples:       o.probeTuples.Load(),
		ProbeSeconds:      float64(o.probeNanos.Load()) / ns,
		SpillWriteBytes:   o.spillWriteBytes.Load(),
		SpillWriteSeconds: float64(o.spillWriteNanos.Load()) / ns,
		SpillReadBytes:    o.spillReadBytes.Load(),
		SpillReadSeconds:  float64(o.spillReadNanos.Load()) / ns,
	}
}

// OpStat is one operator's accounting in a streaming plan: rows/batches/
// bytes that crossed its Next boundary and the wall-clock time spent
// inside it. PeakBytes is operator-specific resident memory (e.g. the
// join reorder buffer's high-water mark, or a sort's accumulated input).
type OpStat struct {
	Op        string
	Rows      int64
	Batches   int64
	Bytes     int64
	PeakBytes int64
	Busy      time.Duration
	// SpillBytes/SpillReadBytes are the scratch bytes this operator wrote
	// and read back while running out-of-core; SpillParts counts the
	// scratch files (sort runs, aggregation partitions, join build
	// partitions) it created. All zero for in-memory execution.
	SpillBytes     int64
	SpillReadBytes int64
	SpillParts     int64
}

// DefaultPrefetch is the lookahead depth the command-line tools use when
// the -prefetch flag is not given: deep enough to overlap the next edge's
// two fetches with the current edge's compute, shallow enough to stay
// within the paper's cache memory assumption.
const DefaultPrefetch = 2

// Validate checks the request.
func (r Request) Validate() error {
	if r.LeftTable == "" || r.RightTable == "" {
		return fmt.Errorf("engine: both table names are required")
	}
	if len(r.JoinAttrs) == 0 {
		return fmt.Errorf("engine: no join attributes")
	}
	if err := r.Filter.Validate(); err != nil {
		return err
	}
	return nil
}

// JoinCounts is a plain snapshot of hashjoin.Stats.
type JoinCounts struct {
	TuplesBuilt  int64
	TuplesProbed int64
	Matches      int64
}

// Result reports one execution.
type Result struct {
	Engine string
	// Tuples is the number of result tuples produced.
	Tuples int64
	// Elapsed is the wall-clock execution time (the quantity the paper's
	// figures plot).
	Elapsed time.Duration
	// Join aggregates hash build/probe counts across all QES instances.
	Join JoinCounts
	// Cache aggregates sub-table cache statistics across compute nodes
	// (IJ only; zero for GH).
	Cache cache.Stats
	// Traffic is the cluster byte accounting for the run.
	Traffic cluster.Traffic
	// Health is the cluster's fault-tolerance accounting (retries,
	// failovers, breaker trips, recoveries). For shared runs the counters
	// are cumulative across the queries sharing the cluster.
	Health cluster.HealthStats
	// Phases records coarse phase durations (engine-specific keys, e.g.
	// "partition" and "bucketjoin" for GH).
	Phases map[string]time.Duration
	// UnitsJoined/UnitsTotal count join schedule units (IJ edges, GH
	// top-level bucket pairs) executed vs scheduled. A full run has
	// UnitsJoined == UnitsTotal; an early-terminated streaming query
	// reports the fraction it actually joined.
	UnitsJoined int64
	UnitsTotal  int64
	// Operators holds per-operator statistics when the query ran through
	// a streaming plan (internal/plan); nil for direct engine runs.
	Operators []OpStat
	// Observed is the run's measured resource costs — the feedback signal
	// the planner's online calibration layer folds into its constants.
	Observed Observed
}

// EffectiveProject returns the pushdown list the engines apply to each
// base table: the requested attributes plus the join keys (which the
// engines need for hashing). Nil when the request selects everything.
func (r Request) EffectiveProject() []string {
	if r.Project == nil {
		return nil
	}
	seen := make(map[string]bool, len(r.Project)+len(r.JoinAttrs))
	out := make([]string, 0, len(r.Project)+len(r.JoinAttrs))
	for _, lists := range [][]string{r.Project, r.JoinAttrs} {
		for _, a := range lists {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// ProjectedSchema returns schema restricted to the projected attributes
// (in schema order); project == nil keeps everything.
func ProjectedSchema(schema tuple.Schema, project []string) tuple.Schema {
	if project == nil {
		return schema
	}
	want := make(map[string]bool, len(project))
	for _, p := range project {
		want[p] = true
	}
	var attrs []tuple.Attr
	for _, a := range schema.Attrs {
		if want[a.Name] {
			attrs = append(attrs, a)
		}
	}
	return tuple.Schema{Attrs: attrs}
}

// Engine executes join-view requests on a cluster.
type Engine interface {
	// Name returns the engine identifier ("ij" or "gh").
	Name() string
	// Run executes the request. Non-shared runs reset cluster accounting
	// at start so Result.Traffic covers exactly this run.
	Run(cl *cluster.Cluster, req Request) (*Result, error)
	// RunContext is Run observing ctx: engines check it between work
	// items (edges, chunks, buckets) and propagate it into sub-table
	// fetches, so a cancelled or deadline-expired query returns ctx.Err()
	// mid-join instead of running to completion.
	RunContext(ctx context.Context, cl *cluster.Cluster, req Request) (*Result, error)
}
