package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(10, 4) != 4 {
		t.Error("requested workers not honored")
	}
	if Workers(2, 100) != 2 {
		t.Error("workers not capped by n")
	}
	if Workers(100, 0) < 1 {
		t.Error("default workers < 1")
	}
	if Workers(0, 0) != 1 {
		t.Error("empty range should still report 1 worker")
	}
}

func TestForEachCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, minParallel - 1, minParallel, 3*minParallel + 5} {
		counts := make([]int32, n)
		ForEachGrain(n, 0, minParallel, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForEachWorkerCounts(t *testing.T) {
	const n = 3 * minParallel
	for _, w := range []int{1, 2, 3, 16, 1000} {
		var sum int64
		ForEachGrain(n, w, minParallel, func(i int) { atomic.AddInt64(&sum, int64(i)) })
		want := int64(n) * int64(n-1) / 2
		if sum != want {
			t.Fatalf("workers=%d: sum=%d want %d", w, sum, want)
		}
	}
}

func TestForEachChunkPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000} {
		for _, w := range []int{1, 3, 7} {
			covered := make([]int32, n)
			ForEachChunk(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestFindSmallestHit(t *testing.T) {
	const n = 4 * minParallel
	targets := []int{0, 1, minParallel + 3, n - 1}
	for _, target := range targets {
		got, err := FindCtx(context.Background(), n, 8, func(i int) bool { return i >= target })
		if err != nil || got != target {
			t.Errorf("FindCtx returned (%d, %v), want %d", got, err, target)
		}
	}
}

func TestFindNoHit(t *testing.T) {
	if got, err := FindCtx(context.Background(), 4*minParallel, 8, func(i int) bool { return false }); err != nil || got != -1 {
		t.Errorf("FindCtx returned (%d, %v) on no-hit input", got, err)
	}
	if got, err := FindCtx(context.Background(), 0, 8, func(i int) bool { return true }); err != nil || got != -1 {
		t.Errorf("FindCtx on empty range returned (%d, %v)", got, err)
	}
}

func TestFindSequentialSmall(t *testing.T) {
	if got, err := FindCtx(context.Background(), 10, 1, func(i int) bool { return i == 7 }); err != nil || got != 7 {
		t.Errorf("sequential FindCtx = (%d, %v)", got, err)
	}
}

func TestSumInt64(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3 * minParallel} {
		for _, w := range []int{1, 4} {
			got, err := SumInt64Ctx(context.Background(), n, w, func(i int) int64 { return int64(i) })
			want := int64(n) * int64(n-1) / 2
			if err != nil || got != want {
				t.Fatalf("SumInt64Ctx(n=%d,w=%d) = (%d, %v), want %d", n, w, got, err, want)
			}
		}
	}
}

// TestMap pins the parallel-map idiom: ForEachGrain storing f(i) into
// dst[i] fills every slot.
func TestMap(t *testing.T) {
	dst := make([]int, 5000)
	ForEachGrain(len(dst), 4, minParallel, func(i int) { dst[i] = i * 2 })
	for i, v := range dst {
		if v != i*2 {
			t.Fatalf("map wrong at %d: %d", i, v)
		}
	}
}

func TestForEachGrain(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3000} {
		for _, grain := range []int{1, 64, 5000} {
			var hits = make([]int32, n)
			ForEachGrain(n, 4, grain, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestForEachChunkSmallRangeSequential pins the grain fallback: a tiny
// range must run as exactly one body(0, n) call on the calling
// goroutine instead of fanning out one goroutine per item (the
// historical bug: a 2-element range spawned up to GOMAXPROCS
// goroutines).
func TestForEachChunkSmallRangeSequential(t *testing.T) {
	for _, n := range []int{1, 2, 10, minParallel - 1} {
		var calls [][2]int
		ForEachChunk(n, 8, func(lo, hi int) {
			// No synchronization on purpose: if this ever runs on more
			// than one goroutine, the race detector flags it.
			calls = append(calls, [2]int{lo, hi})
		})
		if len(calls) != 1 || calls[0] != [2]int{0, n} {
			t.Fatalf("n=%d: want one sequential chunk [0,%d), got %v", n, n, calls)
		}
	}
}

// TestForEachChunkGrainKeepsParallelism verifies the explicit-grain
// escape hatch: few-but-heavy chunks (grain 1) still partition across
// workers.
func TestForEachChunkGrainKeepsParallelism(t *testing.T) {
	const n = 4
	covered := make([]int32, n)
	var chunks int32
	ForEachChunkGrain(n, n, 1, func(lo, hi int) {
		atomic.AddInt32(&chunks, 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	if chunks != n {
		t.Fatalf("grain=1: want %d chunks, got %d", n, chunks)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestCtxVariantsMatchPlainOnBackground(t *testing.T) {
	ctx := context.Background()
	const n = 3*minParallel + 7
	var sum int64
	if err := ForEachGrainCtx(ctx, n, 4, minParallel, func(i int) { atomic.AddInt64(&sum, int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * int64(n-1) / 2; sum != want {
		t.Fatalf("ForEachGrainCtx sum = %d, want %d", sum, want)
	}
	got, err := FindCtx(ctx, n, 4, func(i int) bool { return i >= minParallel })
	if err != nil || got != minParallel {
		t.Fatalf("FindCtx = (%d, %v)", got, err)
	}
	s, err := SumInt64Ctx(ctx, n, 4, func(i int) int64 { return 1 })
	if err != nil || s != int64(n) {
		t.Fatalf("SumInt64Ctx = (%d, %v)", s, err)
	}
	covered := make([]int32, n)
	if err := ForEachChunkCtx(ctx, n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("ForEachChunkCtx: index %d covered %d times", i, c)
		}
	}
}

func TestCtxVariantsCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	body := func(i int) { atomic.AddInt64(&ran, 1) }
	if err := ForEachGrainCtx(ctx, 4*minParallel, 4, minParallel, body); err != context.Canceled {
		t.Fatalf("ForEachGrainCtx err = %v", err)
	}
	if err := ForEachChunkCtx(ctx, 4*minParallel, 4, func(lo, hi int) { atomic.AddInt64(&ran, int64(hi-lo)) }); err != context.Canceled {
		t.Fatalf("ForEachChunkCtx err = %v", err)
	}
	if i, err := FindCtx(ctx, 4*minParallel, 4, func(i int) bool { atomic.AddInt64(&ran, 1); return false }); err != context.Canceled || i != -1 {
		t.Fatalf("FindCtx = (%d, %v)", i, err)
	}
	if s, err := SumInt64Ctx(ctx, 4*minParallel, 4, func(i int) int64 { atomic.AddInt64(&ran, 1); return 1 }); err != context.Canceled || s != 0 {
		t.Fatalf("SumInt64Ctx = (%d, %v)", s, err)
	}
	if ran != 0 {
		t.Fatalf("canceled context still ran %d items", ran)
	}
}

// TestForEachCtxCancelPrompt is the promptness contract: after cancel,
// each worker finishes at most the grain-sized piece it is in and
// abandons the rest, so the residual work is under two chunks per
// worker (satellite requirement; runs under -race in make check-ctx).
func TestForEachCtxCancelPrompt(t *testing.T) {
	const (
		workers = 4
		grain   = 32
		n       = 1 << 16
	)
	ctx, cancel := context.WithCancel(context.Background())
	var processed int64
	err := ForEachGrainCtx(ctx, n, workers, grain, func(i int) {
		if atomic.AddInt64(&processed, 1) == 1 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker was at most mid-piece when the cancel landed and may
	// start at most one more piece before its next probe observes it.
	limit := int64(2 * workers * grain)
	if got := atomic.LoadInt64(&processed); got > limit {
		t.Fatalf("processed %d items after cancel, want <= %d (<2 chunks/worker)", got, limit)
	}
}

// TestFindCtxCancelPrompt: same promptness contract for the early-exit
// search (probe stride is minParallel there).
func TestFindCtxCancelPrompt(t *testing.T) {
	const (
		workers = 4
		n       = 1 << 20
	)
	ctx, cancel := context.WithCancel(context.Background())
	var processed int64
	got, err := FindCtx(ctx, n, workers, func(i int) bool {
		if atomic.AddInt64(&processed, 1) == 1 {
			cancel()
		}
		return false
	})
	if err != context.Canceled || got != -1 {
		t.Fatalf("FindCtx = (%d, %v), want (-1, context.Canceled)", got, err)
	}
	limit := int64(2 * workers * minParallel)
	if p := atomic.LoadInt64(&processed); p > limit {
		t.Fatalf("processed %d candidates after cancel, want <= %d (<2 chunks/worker)", p, limit)
	}
}

// TestFindCtxCancelKeepsHit: a hit found before the cancel is still
// returned (partial result), alongside the error.
func TestFindCtxCancelKeepsHit(t *testing.T) {
	const n = 1 << 18
	ctx, cancel := context.WithCancel(context.Background())
	got, err := FindCtx(ctx, n, 4, func(i int) bool {
		if i == 3 {
			cancel()
			return true
		}
		return false
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got < 0 {
		t.Skip("cancel observed before the hit was recorded (legal schedule)")
	}
	if got != 3 {
		t.Fatalf("hit = %d, want 3", got)
	}
}

// TestCtxCancelAfterLastIndexIsNil: a cancel that lands after every
// index has been visited abandons nothing, so the parallel loops must
// report success. The body cancels right after the last visit; no
// worker probes again before it returns, so the outcome is
// deterministic.
func TestCtxCancelAfterLastIndexIsNil(t *testing.T) {
	const (
		workers = 4
		n       = 4*minParallel + 3
	)
	// lastVisit returns a context and a hook that counts visits and
	// cancels the context once all n indices are in.
	lastVisit := func() (context.Context, func(k int64)) {
		ctx, cancel := context.WithCancel(context.Background())
		var visited int64
		return ctx, func(k int64) {
			if atomic.AddInt64(&visited, k) == n {
				cancel()
			}
		}
	}

	ctx, visit := lastVisit()
	if err := ForEachGrainCtx(ctx, n, workers, 64, func(i int) { visit(1) }); err != nil {
		t.Errorf("ForEachGrainCtx = %v after visiting every index, want nil", err)
	}
	ctx, visit = lastVisit()
	if err := ForEachChunkCtx(ctx, n, workers, func(lo, hi int) { visit(int64(hi - lo)) }); err != nil {
		t.Errorf("ForEachChunkCtx = %v after visiting every index, want nil", err)
	}
	ctx, visit = lastVisit()
	if s, err := SumInt64Ctx(ctx, n, workers, func(i int) int64 { visit(1); return 1 }); err != nil || s != n {
		t.Errorf("SumInt64Ctx = (%d, %v) after visiting every index, want (%d, nil)", s, err, n)
	}
}
