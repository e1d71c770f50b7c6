package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForResultSlots checks the deterministic result-slot contract: every
// index runs exactly once and its write is visible to the caller.
func TestForResultSlots(t *testing.T) {
	s := New(4)
	defer s.Stop()
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
		out := make([]int, n)
		s.For(nil, 0, n, func(i int) { out[i] = i*i + 1 })
		for i, v := range out {
			if v != i*i+1 {
				t.Fatalf("n=%d: slot %d = %d, want %d", n, i, v, i*i+1)
			}
		}
	}
}

// TestForExactlyOnce checks single-index claiming covers every index
// exactly once across sizes from two up to far wider than the pool,
// including one below, at and one past a power of two.
func TestForExactlyOnce(t *testing.T) {
	s := New(3)
	defer s.Stop()
	for _, n := range []int{2, 7, 63, 64, 65, 257, 1000} {
		hits := make([]atomic.Int32, n)
		s.For(nil, 0, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestForMaxPar bounds concurrency: with maxPar=2 no more than two
// executors may be inside fn at once.
func TestForMaxPar(t *testing.T) {
	s := New(8)
	defer s.Stop()
	var cur, peak atomic.Int32
	s.For(nil, 2, 64, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d with maxPar=2", got)
	}
}

// TestForSerialFallback: maxPar 1 must not touch the pool at all (the
// serial path callers rely on for single-threaded determinism).
func TestForSerialFallback(t *testing.T) {
	s := New(2)
	defer s.Stop()
	order := make([]int, 0, 10)
	s.For(nil, 1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback ran out of order: %v", order)
		}
	}
}

// TestNestedFor runs For from inside For tasks — the shard-snapshot →
// per-tag-fill shape — and must complete without deadlock even when the
// pool is narrower than the nesting fan-out.
func TestNestedFor(t *testing.T) {
	s := New(2)
	defer s.Stop()
	var total atomic.Int64
	s.For(nil, 0, 8, func(i int) {
		s.For(nil, 0, 50, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 400 {
		t.Fatalf("nested For ran %d inner indices, want 400", got)
	}
}

// TestGoRunsOnce: spawned tasks run exactly once each, concurrently with
// for-jobs.
func TestGoRunsOnce(t *testing.T) {
	s := New(3)
	defer s.Stop()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		s.Go(nil, func() { ran.Add(1); wg.Done() })
	}
	wg.Wait()
	if got := ran.Load(); got != 100 {
		t.Fatalf("spawned tasks ran %d times, want 100", got)
	}
}

// TestGoroutineReuse is the regression guard for per-call spawning:
// scheduling thousands of For calls must not spawn goroutines per call the
// way the old per-call worker pools did (workers goroutines per
// invocation).
func TestGoroutineReuse(t *testing.T) {
	s := New(4)
	defer s.Stop()
	s.For(nil, 0, 16, func(int) {}) // warm the pool up
	before := runtime.NumGoroutine()
	for k := 0; k < 2000; k++ {
		s.For(nil, 0, 16, func(int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d across 2000 For calls", before, after)
	}
}

// TestFairness: a small group's work submitted behind an enormous group's
// backlog must not wait for the backlog to drain. With one worker, strict
// FIFO would run all big tasks first; the fairness pick must interleave
// the small group in long before the backlog empties.
func TestFairness(t *testing.T) {
	s := New(1)
	defer s.Stop()
	big := s.NewGroup("big")
	small := s.NewGroup("small")

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
		wg.Done()
	}
	// Stall the worker so the queue builds up deterministically.
	gate := make(chan struct{})
	wg.Add(1)
	s.Go(big, func() { <-gate; wg.Done() })
	for i := 0; i < 50; i++ {
		wg.Add(1)
		s.Go(big, func() { record("big") })
	}
	wg.Add(1)
	s.Go(small, func() { record("small") })
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tag := range order {
		if tag == "small" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("small group task never ran")
	}
	// The fairness pick should run the small task near the front: the big
	// group has a worker in flight after its first task, so the small
	// group (0 in flight) wins the next pick.
	if pos > 5 {
		t.Fatalf("small group ran at position %d of %d, after most of the backlog", pos, len(order))
	}
}

// TestStealing: join tickets posted to one worker's deque must not strand
// the job — other workers (or the caller) steal in and finish it even
// when every index is slow.
func TestStealing(t *testing.T) {
	s := New(2)
	defer s.Stop()
	var inner atomic.Int64
	s.For(nil, 0, 64, func(i int) {
		inner.Add(1)
		time.Sleep(50 * time.Microsecond)
	})
	if inner.Load() != 64 {
		t.Fatalf("for-job ran %d of 64", inner.Load())
	}
}

// TestStopDrains: Stop terminates workers; already-submitted tasks ran.
func TestStopDrains(t *testing.T) {
	s := New(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		s.Go(nil, func() { ran.Add(1); wg.Done() })
	}
	wg.Wait()
	s.Stop()
	if ran.Load() != 20 {
		t.Fatalf("ran %d of 20 before Stop", ran.Load())
	}
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines at
// once — the -race job's real target.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(4)
	defer s.Stop()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grp := s.NewGroup("g")
			for k := 0; k < 50; k++ {
				out := make([]int64, 20)
				grp.For(0, len(out), func(i int) { out[i] = int64(i) })
				for i, v := range out {
					if v != int64(i) {
						t.Errorf("slot %d = %d", i, v)
						return
					}
					total.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if want := int64(8 * 50 * 20); total.Load() != want {
		t.Fatalf("verified %d slots, want %d", total.Load(), want)
	}
}

// TestForGroupCoverage runs a named group's For over the degenerate
// sizes (zero, one, a handful) and wider ones under every participant
// cap — serial, a pair, and the full pool plus caller: every index must
// run exactly once.
func TestForGroupCoverage(t *testing.T) {
	s := New(3)
	defer s.Stop()
	g := s.NewGroup("cover")
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, maxPar := range []int{0, 1, 2, 4} {
			hits := make([]atomic.Int32, n)
			g.For(maxPar, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d maxPar=%d: index %d covered %d times", n, maxPar, i, got)
				}
			}
		}
	}
}

// TestForEdges pins For on the degenerate shapes — an odd remainder, a
// handful of indices, a single index and an empty job — on a
// single-worker scheduler (where the caller and one worker share the
// job) and a wider one, all through a named group.
func TestForEdges(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := New(workers)
		g := s.NewGroup("edges")
		for _, n := range []int{10, 5, 2, 1, 0} {
			hits := make([]atomic.Int32, n)
			s.For(g, 0, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		s.Stop()
	}
}

// TestForCoversAllIndices runs the process-global scheduler's For — what
// the engine, deployment and experiment fan-outs call — over every
// parallelism the callers pass (0 = full width, 1 = serial, and caps
// below, at and far above the pool width) and every degenerate size:
// each index runs exactly once.
func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		for _, n := range []int{0, 1, 5, 257} {
			out := make([]atomic.Int32, n)
			Default().For(nil, workers, n, func(i int) { out[i].Add(1) })
			for i := range out {
				if v := out[i].Load(); v != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForNoGoroutinesPerCall: repeated capped For calls on the
// process-global scheduler ride its persistent pool, so the goroutine
// count stays flat.
func TestForNoGoroutinesPerCall(t *testing.T) {
	Default().For(nil, 4, 16, func(int) {}) // warm the shared pool
	before := runtime.NumGoroutine()
	for k := 0; k < 1000; k++ {
		Default().For(nil, 4, 16, func(int) {})
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew %d -> %d across 1000 For calls", before, after)
	}
}
