// Package enginetest provides a collecting engine.Sink for tests that
// inspect a join's output rows.
package enginetest

import (
	"sort"
	"sync"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/tuple"
)

// Collector is an engine.Sink that keeps every batch. Like the plan
// layer's sink it drops a part's batches on Discard, so a replayed part
// appears exactly once.
type Collector struct {
	mu    sync.Mutex
	parts map[int][]*tuple.SubTable
}

// Emit implements engine.Sink.
func (c *Collector) Emit(part int, batch *tuple.SubTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.parts == nil {
		c.parts = make(map[int][]*tuple.SubTable)
	}
	c.parts[part] = append(c.parts[part], batch)
	return nil
}

// Done implements engine.Sink.
func (c *Collector) Done(int) {}

// Discard implements engine.Sink.
func (c *Collector) Discard(part int) {
	c.mu.Lock()
	delete(c.parts, part)
	c.mu.Unlock()
}

// Batches returns the collected batches in ascending part order, each
// part's batches in emission order.
func (c *Collector) Batches() []*tuple.SubTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]int, 0, len(c.parts))
	for k := range c.parts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var out []*tuple.SubTable
	for _, k := range keys {
		out = append(out, c.parts[k]...)
	}
	return out
}

// Run executes req on eng with a fresh Collector as its sink and returns
// the result with the collected batches.
func Run(eng engine.Engine, cl *cluster.Cluster, req engine.Request) (*engine.Result, []*tuple.SubTable, error) {
	c := &Collector{}
	req.Sink = c
	res, err := eng.Run(cl, req)
	if err != nil {
		return nil, nil, err
	}
	return res, c.Batches(), nil
}
