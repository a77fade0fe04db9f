package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{})
	r.Span("n", KindFetch, "d", time.Now(), 1, 1)
	r.Reset()
	if got := r.Child().Total(KindFetch); got != (KindSummary{Kind: KindFetch}) {
		t.Errorf("nil recorder's child kept totals: %+v", got)
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder returned events: %v", got)
	}
}

func TestRecordAndSummarize(t *testing.T) {
	r := New()
	base := time.Now()
	r.Add(Event{Node: "joiner-0", Kind: KindFetch, Start: base, Dur: 10 * time.Millisecond, Bytes: 100, Items: 5})
	r.Add(Event{Node: "joiner-0", Kind: KindBuild, Start: base.Add(10 * time.Millisecond), Dur: 5 * time.Millisecond, Items: 5})
	r.Add(Event{Node: "joiner-1", Kind: KindFetch, Start: base.Add(2 * time.Millisecond), Dur: 20 * time.Millisecond, Bytes: 300, Items: 9})
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Start-ordered.
	if events[0].Node != "joiner-0" || events[1].Node != "joiner-1" {
		t.Errorf("order wrong: %v", events)
	}
	s := Summarize(events)
	if s.Events != 3 {
		t.Errorf("summary events = %d", s.Events)
	}
	// Span: first start to last end = 22ms? joiner-1 ends at 22ms,
	// joiner-0 build ends at 15ms → 22ms.
	if s.Span != 22*time.Millisecond {
		t.Errorf("span = %v", s.Span)
	}
	var fetch *KindSummary
	for i := range s.Kinds {
		if s.Kinds[i].Kind == KindFetch {
			fetch = &s.Kinds[i]
		}
	}
	if fetch == nil || fetch.Count != 2 || fetch.Bytes != 400 || fetch.Items != 14 ||
		fetch.Busy != 30*time.Millisecond {
		t.Errorf("fetch summary = %+v", fetch)
	}
	if len(s.Nodes) != 2 || s.Nodes[0].Node != "joiner-0" || s.Nodes[0].Count != 2 {
		t.Errorf("node summaries = %+v", s.Nodes)
	}
	var sb strings.Builder
	s.Print(&sb)
	for _, want := range []string{"3 events", "fetch", "joiner-1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("print missing %q:\n%s", want, sb.String())
		}
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Add(Event{Kind: KindProbe})
	r.Reset()
	if len(r.Events()) != 0 {
		t.Error("reset failed")
	}
	Summarize(nil).Print(&strings.Builder{}) // empty summary prints fine
}

// TestChildTotals: every recorder keeps per-kind totals; a child keeps
// only totals and forwards each event to its parent unchanged.
func TestChildTotals(t *testing.T) {
	parent := New()
	child := parent.Child()
	base := time.Now()
	child.Add(Event{Kind: KindSpill, Start: base, Dur: 2 * time.Millisecond, Bytes: 100, Items: 4})
	child.Add(Event{Kind: KindSpill, Start: base, Dur: 3 * time.Millisecond, Bytes: 50, Items: 1})
	child.Add(Event{Kind: KindBucketRead, Start: base, Dur: time.Millisecond, Bytes: 150})
	want := KindSummary{Kind: KindSpill, Count: 2, Bytes: 150, Items: 5, Busy: 5 * time.Millisecond}
	for name, r := range map[string]*Recorder{"child": child, "parent": parent} {
		if got := r.Total(KindSpill); got != want {
			t.Errorf("%s spill total = %+v, want %+v", name, got, want)
		}
		if got := r.Total(KindFetch); got != (KindSummary{Kind: KindFetch}) {
			t.Errorf("%s fetch total = %+v, want zero", name, got)
		}
	}
	if got := child.Events(); len(got) != 0 {
		t.Errorf("child kept %d events", len(got))
	}
	if got := parent.Events(); len(got) != 3 {
		t.Errorf("parent kept %d events, want 3", len(got))
	}
	parent.Reset()
	if got := parent.Total(KindSpill); got.Count != 0 {
		t.Errorf("reset kept totals: %+v", got)
	}
}

// TestChildConcurrent: joiner goroutines add to one run recorder at
// once; no event may be lost from the totals or the parent.
func TestChildConcurrent(t *testing.T) {
	const workers, each = 8, 200
	parent := New()
	child := parent.Child()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				child.Span("joiner", KindFetch, "", time.Now(), 3, 1)
			}
		}()
	}
	wg.Wait()
	for name, r := range map[string]*Recorder{"child": child, "parent": parent} {
		if got := r.Total(KindFetch); got.Count != workers*each || got.Bytes != 3*workers*each {
			t.Errorf("%s fetch total = %+v, want %d events", name, got, workers*each)
		}
	}
}
