// Package par provides the small parallel-execution runtime used by the
// evaluators and checkers in shufflenet: chunked parallel loops over
// index ranges, an early-exit parallel search, and a parallel sum.
//
// All functions degrade gracefully to sequential execution for small
// inputs, so callers can use them unconditionally. Worker counts default
// to GOMAXPROCS and are capped by the work available.
//
// The loops observe cancellation once per chunk — never per item — so
// the hot inner loops pay nothing: with a non-cancelable context
// (ctx.Done() == nil, e.g. context.Background()) the probe compiles
// down to a nil check, and the few non-ctx entry points that callers
// use (ForEachGrain, ForEachChunk, ForEachChunkGrain) are thin
// context.Background() wrappers. On cancellation the ctx-aware entry
// points return the context's error; workers abandon un-started chunks
// but finish the chunk they are in, so the residual work after a cancel
// is bounded by one chunk per worker.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"shufflenet/internal/obs"
)

// minParallel is the smallest range worth splitting across goroutines;
// below this the scheduling overhead dominates. It doubles as the
// default cancellation-probe stride: a cancelable loop checks its
// context every minParallel items.
const minParallel = 2048

// Runtime metrics: one or two atomic adds per parallel *invocation*
// plus one add/sub pair per worker *goroutine* (never per item), so the
// loops themselves stay untouched. The workers.last gauge records the
// fan-out of the most recent parallel invocation; workers.active counts
// goroutines currently inside a parallel region, so a live-telemetry
// sample of it reads as instantaneous occupancy.
var (
	metChunks     = obs.C("par.chunks")
	metSequential = obs.C("par.sequential")
	metItems      = obs.C("par.items")
	metCanceled   = obs.C("par.canceled")
	metWorkers    = obs.G("par.workers.last")
	metActive     = obs.G("par.workers.active")
)

// workerEnter/workerExit bracket each worker goroutine's life for the
// occupancy gauge.
func workerEnter() { metActive.Add(1) }
func workerExit()  { metActive.Add(-1) }

// Workers returns the effective worker count for a range of size n given
// a requested count (0 means GOMAXPROCS). The result is at least 1 and
// at most n.
func Workers(n, requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// canceled is the once-per-chunk cancellation probe: a single
// non-blocking channel receive when the context is cancelable, and a
// nil check compiled to nothing when it is not (done == nil for
// context.Background and context.TODO).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ForEachGrain invokes body(i) for every i in [0, n), splitting the
// range into contiguous chunks across up to workers goroutines (0 =
// GOMAXPROCS). body must be safe for concurrent invocation on distinct
// indices. Ranges smaller than grain run sequentially, since below it
// goroutine scheduling costs more than the work. Callers with
// expensive bodies can pass a small grain (>= 1) to force parallelism
// on short ranges; callers with trivial bodies should keep it large.
func ForEachGrain(n, workers, grain int, body func(i int)) {
	ForEachGrainCtx(context.Background(), n, workers, grain, body)
}

// ForEachGrainCtx is ForEachGrain with cancellation, probed once per
// grain-sized piece of each worker's range. It returns ctx.Err() when
// the run was cut short (some indices unvisited), nil when every index
// was visited.
func ForEachGrainCtx(ctx context.Context, n, workers, grain int, body func(i int)) error {
	done := ctx.Done()
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < grain {
		metSequential.Inc()
		for lo := 0; lo < n; lo += grain {
			if canceled(done) {
				metCanceled.Inc()
				return ctx.Err()
			}
			hi := min(lo+grain, n)
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var abandoned atomic.Bool
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			for ; lo < hi; lo += grain {
				if canceled(done) {
					abandoned.Store(true)
					return
				}
				stop := min(lo+grain, hi)
				for i := lo; i < stop; i++ {
					body(i)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return abandonedErr(ctx, &abandoned)
}

// ForEachChunk invokes body(lo, hi) for a partition of [0, n) into
// contiguous half-open chunks, one per worker goroutine. Use this
// instead of ForEachGrain when the body benefits from per-chunk state
// (e.g. scratch buffers). Ranges smaller than the default grain (2048)
// run as a single body(0, n) call on the calling goroutine; use
// ForEachChunkGrain when few-but-heavy chunks justify a lower
// threshold.
func ForEachChunk(n, workers int, body func(lo, hi int)) {
	forEachChunk(context.Background(), n, workers, minParallel, body)
}

// ForEachChunkGrain is ForEachChunk with an explicit sequential
// threshold: ranges smaller than grain run as one body(0, n) call.
// Callers whose chunks are individually expensive (e.g. per-slot
// Monte-Carlo batches) pass a small grain to keep parallelism on short
// ranges.
func ForEachChunkGrain(n, workers, grain int, body func(lo, hi int)) {
	forEachChunk(context.Background(), n, workers, grain, body)
}

// ForEachChunkCtx is ForEachChunk with cancellation. With a cancelable
// context each worker's range is re-split into grain-sized (2048)
// pieces with a probe before each piece, so body runs O(n/2048) times
// instead of once per worker; bodies that amortize per-chunk state
// (scratch buffers, batched metric flushes) amortize it over a piece
// instead of a worker-range, which costs nothing measurable at that
// stride. With a non-cancelable context the layout is exactly
// ForEachChunk's. Returns ctx.Err() when chunks were abandoned.
func ForEachChunkCtx(ctx context.Context, n, workers int, body func(lo, hi int)) error {
	return forEachChunk(ctx, n, workers, minParallel, body)
}

func forEachChunk(ctx context.Context, n, workers, grain int, body func(lo, hi int)) error {
	done := ctx.Done()
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < grain {
		metSequential.Inc()
		if done == nil {
			body(0, n)
			return nil
		}
		for lo := 0; lo < n; lo += grain {
			if canceled(done) {
				metCanceled.Inc()
				return ctx.Err()
			}
			body(lo, min(lo+grain, n))
		}
		return nil
	}
	var wg sync.WaitGroup
	var abandoned atomic.Bool
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			if done == nil {
				body(lo, hi)
				return
			}
			for ; lo < hi; lo += grain {
				if canceled(done) {
					abandoned.Store(true)
					return
				}
				body(lo, min(lo+grain, hi))
			}
		}(lo, hi)
	}
	wg.Wait()
	return abandonedErr(ctx, &abandoned)
}

// abandonedErr is the parallel loops' verdict once every worker has
// returned: ctx.Err() if some worker abandoned a piece, nil otherwise.
// A cancel that lands after the last piece has run leaves nothing
// unvisited, so it is not reported.
func abandonedErr(ctx context.Context, abandoned *atomic.Bool) error {
	if !abandoned.Load() {
		return nil
	}
	metCanceled.Inc()
	return ctx.Err()
}

// FindCtx searches [0, n) in parallel for an index satisfying pred and
// returns the smallest satisfying index found, or -1 if none satisfies
// pred. Workers abandon chunks that can no longer contain a smaller
// hit, so FindCtx is effective for needle-in-haystack searches such as
// locating the first unsorted 0-1 input of a network.
//
// Cancellation is probed once per chunk of 2048 candidates. On
// cancellation FindCtx returns the smallest hit observed so far (or -1)
// together with ctx.Err(); the returned index still satisfies pred but
// is no longer guaranteed minimal, since chunks below it may have been
// abandoned.
func FindCtx(ctx context.Context, n, workers int, pred func(i int) bool) (int, error) {
	done := ctx.Done()
	if n <= 0 {
		return -1, nil
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < minParallel {
		metSequential.Inc()
		for lo := 0; lo < n; lo += minParallel {
			if canceled(done) {
				metCanceled.Inc()
				return -1, ctx.Err()
			}
			hi := min(lo+minParallel, n)
			for i := lo; i < hi; i++ {
				if pred(i) {
					return i, nil
				}
			}
		}
		return -1, nil
	}
	best := int64(n)
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			for ; lo < hi; lo += minParallel {
				if canceled(done) {
					return
				}
				stop := min(lo+minParallel, hi)
				for i := lo; i < stop; i++ {
					if int64(i) >= atomic.LoadInt64(&best) {
						return // a smaller index already found
					}
					if pred(i) {
						for {
							cur := atomic.LoadInt64(&best)
							if int64(i) >= cur || atomic.CompareAndSwapInt64(&best, cur, int64(i)) {
								break
							}
						}
						return
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	hit := atomic.LoadInt64(&best)
	if canceled(done) {
		metCanceled.Inc()
		if hit < int64(n) {
			return int(hit), ctx.Err()
		}
		return -1, ctx.Err()
	}
	if hit == int64(n) {
		return -1, nil
	}
	return int(hit), nil
}

// SumInt64Ctx computes sum over i in [0, n) of f(i) in parallel,
// probing cancellation once per chunk of 2048 items. On cancellation it
// returns the partial sum accumulated so far (an undercount) together
// with ctx.Err().
func SumInt64Ctx(ctx context.Context, n, workers int, f func(i int) int64) (int64, error) {
	done := ctx.Done()
	if n <= 0 {
		return 0, nil
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < minParallel {
		metSequential.Inc()
		var s int64
		for lo := 0; lo < n; lo += minParallel {
			if canceled(done) {
				metCanceled.Inc()
				return s, ctx.Err()
			}
			hi := min(lo+minParallel, n)
			for i := lo; i < hi; i++ {
				s += f(i)
			}
		}
		return s, nil
	}
	partial := make([]int64, w)
	var wg sync.WaitGroup
	var abandoned atomic.Bool
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	slot := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			var s int64
			for ; lo < hi; lo += minParallel {
				if canceled(done) {
					abandoned.Store(true)
					break
				}
				stop := min(lo+minParallel, hi)
				for i := lo; i < stop; i++ {
					s += f(i)
				}
			}
			partial[slot] = s
		}(slot, lo, hi)
		slot++
	}
	wg.Wait()
	var total int64
	for _, s := range partial {
		total += s
	}
	return total, abandonedErr(ctx, &abandoned)
}
