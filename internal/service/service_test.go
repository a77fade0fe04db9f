package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/ij"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

// testAlphas preset the cost-model CPU constants so tests skip the
// one-time calibration measurement.
const testAlpha = 1e-9

func makeCluster(t *testing.T, ns, nj int, cacheBytes int64, readBw float64) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(8, 8, 4),
		LeftPart:     partition.D(2, 2, 4),
		RightPart:    partition.D(2, 2, 4),
		StorageNodes: ns,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: ns, ComputeNodes: nj,
		CacheBytes: cacheBytes, DiskReadBw: readBw,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testReq() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
	}
}

func newService(cl *cluster.Cluster, cfg Config) *Service {
	cfg.AlphaBuild, cfg.AlphaLookup = testAlpha, testAlpha
	return New(cl, cfg)
}

// bdsFetches sums the storage nodes' served-sub-table counters (monotonic
// across resets; callers measure deltas).
func bdsFetches(cl *cluster.Cluster) int64 {
	var n int64
	for _, sn := range cl.Storage {
		n += sn.BDS.Stats.SubTablesServed.Load()
	}
	return n
}

// waitInFlight polls until the service reports n executing queries.
func waitInFlight(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", n, s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentQueriesMatchSerialAndDedup is the subsystem's acceptance
// test: 8 identical queries run concurrently must (a) each produce the
// serial engine's result and (b) cause exactly as many BDS sub-table
// transfers as ONE query — the flight groups and shared caches collapse
// the other 7 queries' fetches.
func TestConcurrentQueriesMatchSerialAndDedup(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)

	serial, err := ij.New().Run(cl, testReq())
	if err != nil {
		t.Fatal(err)
	}
	fetchesSingle := bdsFetches(cl)
	if fetchesSingle == 0 {
		t.Fatal("serial run served no sub-tables")
	}

	cl.Reset() // cold caches again for the concurrent phase
	base := bdsFetches(cl)
	svc := newService(cl, Config{MaxInFlight: 8, Force: "ij"})
	defer svc.Close()

	const n = 8
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Submit(context.Background(), Query{Req: testReq()})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if resps[i].Result.Tuples != serial.Tuples {
			t.Errorf("query %d: %d tuples, serial produced %d", i, resps[i].Result.Tuples, serial.Tuples)
		}
	}
	if delta := bdsFetches(cl) - base; delta != fetchesSingle {
		t.Errorf("8 concurrent queries caused %d BDS fetches, want %d (single-query count)",
			delta, fetchesSingle)
	}
	st := svc.Stats()
	if st.Completed != n || st.Admitted != n {
		t.Errorf("stats: %+v", st)
	}
}

// TestCancelledWhileQueued: with one execution slot busy, a queued
// query's cancellation must return context.Canceled promptly and leave
// the queue serviceable.
func TestCancelledWhileQueued(t *testing.T) {
	// ~31ms per sub-table fetch (256 B at 8 KiB/s) keeps the first query
	// busy long enough to hold the slot.
	cl := makeCluster(t, 2, 1, 32<<20, 8192)
	svc := newService(cl, Config{MaxInFlight: 1, Force: "ij"})
	defer svc.Close()

	firstErr := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		firstErr <- err
	}()
	waitInFlight(t, svc, 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.Submit(ctx, Query{Req: testReq()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-cancelled query: err = %v, want context.Canceled", err)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", wait)
	}

	if err := <-firstErr; err != nil {
		t.Fatalf("first query: %v", err)
	}
	// The queue must still dispatch: a third query (cache-warm now) runs.
	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); err != nil {
		t.Fatalf("queue wedged after cancellation: %v", err)
	}
	if st := svc.Stats(); st.Cancelled != 1 {
		t.Errorf("cancelled count = %d, want 1 (%+v)", st.Cancelled, st)
	}
}

// TestCancelledWhileRunning: cancelling an admitted query's context must
// abort it mid-join with context.Canceled and free its slot.
func TestCancelledWhileRunning(t *testing.T) {
	cl := makeCluster(t, 2, 1, 32<<20, 8192)
	svc := newService(cl, Config{MaxInFlight: 1, Force: "ij"})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, err := svc.Submit(ctx, Query{Req: testReq()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("running-then-cancelled query: err = %v, want context.Canceled", err)
	}
	// Slot released: the next query completes.
	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestPriorityOrdersQueue: among waiting queries, higher priority runs
// first; FIFO breaks ties.
func TestPriorityOrdersQueue(t *testing.T) {
	cl := makeCluster(t, 2, 1, 32<<20, 8192)
	svc := newService(cl, Config{MaxInFlight: 1, Force: "ij"})
	defer svc.Close()

	blockErr := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		blockErr <- err
	}()
	waitInFlight(t, svc, 1)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(name string, pri int) {
		defer wg.Done()
		if _, err := svc.Submit(context.Background(), Query{Req: testReq(), Priority: pri}); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	wg.Add(2)
	go submit("low", 0)
	// Ensure "low" is queued before "high" so FIFO alone would pick it.
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("low-priority query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	go submit("high", 5)
	for svc.QueueLen() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("high-priority query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if err := <-blockErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("completion order = %v, want [high low]", order)
	}
}

// TestQueueFull: MaxQueue bounds waiting submissions with a fast failure.
func TestQueueFull(t *testing.T) {
	cl := makeCluster(t, 2, 1, 32<<20, 8192)
	svc := newService(cl, Config{MaxInFlight: 1, MaxQueue: 1, Force: "ij"})
	defer svc.Close()

	bg := make(chan error, 2)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		bg <- err
	}()
	waitInFlight(t, svc, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		bg <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third query: err = %v, want ErrQueueFull", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-bg; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryBudgetSerializes: a budget below two queries' combined
// estimates must keep them from overlapping even with free slots.
func TestMemoryBudgetSerializes(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	// Probe the estimate the service will charge.
	probe := newService(cl, Config{MaxInFlight: 8, Force: "ij"})
	resp, err := probe.Submit(context.Background(), Query{Req: testReq()})
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	weight := resp.Weight

	svc := newService(cl, Config{
		MaxInFlight: 8, Force: "ij", MemoryBudget: weight + weight/2,
	})
	defer svc.Close()
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Submit(context.Background(), Query{Req: testReq()})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := svc.Stats(); st.InFlightPeak != 1 {
		t.Errorf("in-flight peak = %d, want 1 under the tight budget (%+v)", st.InFlightPeak, st)
	}
}

// TestCloseDrains: Close refuses new work, fails queued queries with
// ErrClosed, and returns only after in-flight queries finish.
func TestCloseDrains(t *testing.T) {
	cl := makeCluster(t, 2, 1, 32<<20, 8192)
	svc := newService(cl, Config{MaxInFlight: 1, Force: "ij"})

	running := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		running <- err
	}()
	waitInFlight(t, svc, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Query{Req: testReq()})
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returned, so the in-flight query must already have finished.
	select {
	case err := <-running:
		if err != nil {
			t.Fatalf("in-flight query during drain: %v", err)
		}
	default:
		t.Fatal("Close returned before the in-flight query finished")
	}
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued query during drain: err = %v, want ErrClosed", err)
	}
	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestServeRPC exercises the gob wire path over real TCP: query and
// stats round-trips through a served service.
func TestServeRPC(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	serial, err := ij.New().Run(cl, testReq())
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	svc := newService(cl, Config{MaxInFlight: 4, Force: "ij"})
	defer svc.Close()

	tr := transport.NewTCP()
	closer, err := svc.ServeOn(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	conn, err := tr.Dial(DefaultServiceName)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)
	defer client.Close()

	resp, err := client.Query(context.Background(), Query{Req: testReq(), Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Tuples != serial.Tuples {
		t.Errorf("remote query: %d tuples, want %d", resp.Result.Tuples, serial.Tuples)
	}
	if resp.Result.Engine != "ij" {
		t.Errorf("remote engine = %q", resp.Result.Engine)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 {
		t.Errorf("remote stats completed = %d, want 1 (%+v)", st.Completed, st)
	}
}

// TestSubmitSQLMatchesExecutor pushes SQL statements through the service's
// admission path: every concurrent submission must return rows
// byte-identical to a plain (unbudgeted, un-degraded) executor, and
// admission must charge a positive plan-derived weight.
func TestSubmitSQLMatchesExecutor(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: 1 << 30, Force: "ij"})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	ref := svc.Executor()
	if _, err := ref.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT wp, oilp FROM V WHERE x BETWEEN 0 AND 5 ORDER BY wp DESC LIMIT 10",
		"SELECT AVG(wp) FROM V GROUP BY z ORDER BY z",
		"SELECT COUNT(*) FROM T1",
	}
	for _, q := range queries {
		want, err := ref.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3
		resps := make([]*Response, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = svc.SubmitSQL(context.Background(), ex, SQL{Query: q})
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s [%d]: %v", q, i, errs[i])
			}
			if resps[i].Weight < 1 {
				t.Errorf("%s [%d]: weight = %d", q, i, resps[i].Weight)
			}
			assertSameTable(t, q, want.Rows, resps[i].Rows)
		}
	}

	if _, err := svc.SubmitSQL(context.Background(), ex,
		SQL{Query: "CREATE VIEW W AS SELECT * FROM T1 JOIN T2 ON (x)"}); err == nil {
		t.Error("SubmitSQL accepted a non-SELECT statement")
	}
}

func assertSameTable(t *testing.T, q string, want, got *tuple.SubTable) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil rows", q)
	}
	wn, gn := want.Schema.Names(), got.Schema.Names()
	if len(wn) != len(gn) {
		t.Fatalf("%s: schema %v, want %v", q, gn, wn)
	}
	for i := range wn {
		if wn[i] != gn[i] {
			t.Fatalf("%s: schema %v, want %v", q, gn, wn)
		}
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: %d rows, want %d", q, got.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.Schema.NumAttrs(); c++ {
			if want.Value(r, c) != got.Value(r, c) {
				t.Fatalf("%s: row %d col %d = %v, want %v", q, r, c, got.Value(r, c), want.Value(r, c))
			}
		}
	}
}
