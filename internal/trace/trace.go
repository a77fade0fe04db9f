// Package trace records per-run execution events — sub-table fetches,
// hash builds and probes, bucket spills and reads — with wall-clock spans
// and byte counts, and summarizes them per event kind and per node. It is
// the single accounting channel of the engines and the scratch manager:
// every span also adds to per-kind totals (count, bytes, items, busy
// time), which the planner's calibration feedback (engine.Observed) and
// the spilling operators' OpStat are derived from, while the kept event
// list backs the query tools' -trace flag — where the totals say *how
// much* moved, the events say *when* and *where*, exposing
// serialization, stragglers and phase overlap.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the query engines.
const (
	KindFetch      Kind = "fetch"      // BDS → compute sub-table transfer
	KindBuild      Kind = "build"      // hash-table build
	KindProbe      Kind = "probe"      // hash-table probe
	KindShip       Kind = "ship"       // GH record batch storage → joiner
	KindSpill      Kind = "spill"      // GH bucket write to scratch disk
	KindBucketRead Kind = "bucketread" // GH bucket read back
	KindRecover    Kind = "recover"    // work re-run after a node failure
	KindPrefetch   Kind = "prefetch"   // IJ lookahead fetch overlapping build/probe
)

// Event kinds emitted by the concurrent query service.
const (
	KindQueue Kind = "queue" // admission wait: submit → dispatch
	KindQuery Kind = "query" // one admitted query's execution
)

// Event kinds emitted by the streaming plan executor.
const (
	// KindOperator is one plan operator's lifetime: detail is the
	// operator description, bytes/items the batch bytes and rows that
	// crossed its Next boundary.
	KindOperator Kind = "operator"
)

// Event is one recorded span.
type Event struct {
	Node   string // owning node, e.g. "joiner-2" or "storage-0"
	Kind   Kind
	Detail string // free-form: sub-table id, bucket number, ...
	Start  time.Time
	Dur    time.Duration
	Bytes  int64
	Items  int64 // tuples touched, when meaningful
}

// Recorder collects events and keeps per-kind totals of everything it
// records. A nil *Recorder is a valid no-op sink, so engines can record
// unconditionally.
type Recorder struct {
	parent *Recorder // receives every event a Child records
	keep   bool      // New keeps events; a Child keeps only totals

	mu     sync.Mutex
	events []Event
	totals []KindSummary // one entry per kind seen, in first-seen order
}

// New returns an empty recorder that keeps every event.
func New() *Recorder { return &Recorder{keep: true} }

// Child returns a recorder that keeps only per-kind totals and forwards
// every event to r, which may be nil. Engines and spilling operators
// open one per run, so their accounting is read from the child's totals
// whether or not a caller attached r — and an untraced run stores no
// events.
func (r *Recorder) Child() *Recorder { return &Recorder{parent: r} }

// Add records one event.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.keep {
		r.events = append(r.events, e)
	}
	i := 0
	for i < len(r.totals) && r.totals[i].Kind != e.Kind {
		i++
	}
	if i == len(r.totals) {
		r.totals = append(r.totals, KindSummary{Kind: e.Kind})
	}
	t := &r.totals[i]
	t.Count++
	t.Bytes += e.Bytes
	t.Items += e.Items
	t.Busy += e.Dur
	r.mu.Unlock()
	r.parent.Add(e)
}

// Span records an event covering [start, now).
func (r *Recorder) Span(node string, kind Kind, detail string, start time.Time, bytes, items int64) {
	if r == nil {
		return
	}
	r.Add(Event{
		Node: node, Kind: kind, Detail: detail,
		Start: start, Dur: time.Since(start),
		Bytes: bytes, Items: items,
	})
}

// Total returns the running totals of one event kind (zero when none
// was recorded).
func (r *Recorder) Total(kind Kind) KindSummary {
	if r == nil {
		return KindSummary{Kind: kind}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.totals {
		if t.Kind == kind {
			return t
		}
	}
	return KindSummary{Kind: kind}
}

// Events returns a copy of the recorded events in start order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Reset discards recorded events and totals.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.totals = r.totals[:0]
	r.mu.Unlock()
}

// KindSummary aggregates one event kind.
type KindSummary struct {
	Kind  Kind
	Count int
	Bytes int64
	Items int64
	Busy  time.Duration
}

// NodeSummary aggregates one node's activity.
type NodeSummary struct {
	Node  string
	Count int
	Busy  time.Duration
	Bytes int64
}

// Summary is the rollup of a run's events.
type Summary struct {
	Events int
	Span   time.Duration // first start → last end
	Kinds  []KindSummary // sorted by kind
	Nodes  []NodeSummary // sorted by node
}

// Summarize rolls up events.
func Summarize(events []Event) Summary {
	s := Summary{Events: len(events)}
	if len(events) == 0 {
		return s
	}
	kinds := make(map[Kind]*KindSummary)
	nodes := make(map[string]*NodeSummary)
	first := events[0].Start
	var last time.Time
	for _, e := range events {
		if e.Start.Before(first) {
			first = e.Start
		}
		if end := e.Start.Add(e.Dur); end.After(last) {
			last = end
		}
		k := kinds[e.Kind]
		if k == nil {
			k = &KindSummary{Kind: e.Kind}
			kinds[e.Kind] = k
		}
		k.Count++
		k.Bytes += e.Bytes
		k.Items += e.Items
		k.Busy += e.Dur
		n := nodes[e.Node]
		if n == nil {
			n = &NodeSummary{Node: e.Node}
			nodes[e.Node] = n
		}
		n.Count++
		n.Busy += e.Dur
		n.Bytes += e.Bytes
	}
	s.Span = last.Sub(first)
	for _, k := range kinds {
		s.Kinds = append(s.Kinds, *k)
	}
	sort.Slice(s.Kinds, func(i, j int) bool { return s.Kinds[i].Kind < s.Kinds[j].Kind })
	for _, n := range nodes {
		s.Nodes = append(s.Nodes, *n)
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].Node < s.Nodes[j].Node })
	return s
}

// Print renders the summary as aligned text.
func (s Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events over %v\n", s.Events, s.Span.Round(time.Microsecond))
	if s.Events == 0 {
		return
	}
	fmt.Fprintf(w, "%-12s %8s %14s %12s %14s\n", "kind", "count", "bytes", "items", "busy")
	for _, k := range s.Kinds {
		fmt.Fprintf(w, "%-12s %8d %14d %12d %14v\n",
			k.Kind, k.Count, k.Bytes, k.Items, k.Busy.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "%-12s %8s %14s %14s\n", "node", "count", "bytes", "busy")
	for _, n := range s.Nodes {
		fmt.Fprintf(w, "%-12s %8d %14d %14v\n",
			n.Node, n.Count, n.Bytes, n.Busy.Round(time.Microsecond))
	}
}
