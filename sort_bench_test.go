package shufflenet_test

// Benchmarks for the generated sorting kernels (PR 6): the committed
// sortkernels package against slices.Sort and against interpreting the
// same depth-optimal network through Program.EvalInto, plus the
// end-to-end shufflenet.Sort dispatcher across the kernel range and
// into the fallback. BenchmarkGeneratedSort* and BenchmarkSortDispatch*
// are guarded in cmd/benchjson -diff (see Makefile BENCH_GUARDED).
//
// Methodology: each iteration copies one of a batch of pre-generated
// random slices into a scratch buffer and sorts it, so every op sorts
// genuinely unsorted data; the copy cost is identical across the
// compared implementations.

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"shufflenet"
	"shufflenet/internal/netbuild"
	"shufflenet/sortkernels"
)

const sortBatch = 256

func benchSort[T any](b *testing.B, n int, fill func(*rand.Rand) T, f func([]T)) {
	rng := rand.New(rand.NewSource(42))
	src := make([]T, sortBatch*n)
	for i := range src {
		src[i] = fill(rng)
	}
	buf := make([]T, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i % sortBatch) * n
		copy(buf, src[j:j+n])
		f(buf)
	}
}

var sortWidths = []int{2, 3, 4, 6, 8, 10, 12, 14, 16}

// BenchmarkGeneratedSort: the generated kernels against slices.Sort
// and against interpreting the identical network via Program.EvalInto,
// on random []int across the kernel widths; uint64 and float64 at the
// spot widths 8 and 16. The /baseline variant copies without sorting —
// at small widths the harness copy dominates raw ns/op, so the honest
// per-sort cost (and the ratio recorded in EXPERIMENTS.md) is
// net of it. The /kernel legs call the sortkernels entry points
// (sortkernels.Int, Uint64, Float64) directly, with no NaN prescan
// and no façade; the full per-call dispatch cost is
// BenchmarkSortDispatch's subject.
func BenchmarkGeneratedSort(b *testing.B) {
	intf := func(rng *rand.Rand) int { return int(rng.Int63()) }
	for _, n := range sortWidths {
		prog := netbuild.DepthOptimal(n).Compile()
		b.Run("int-n"+strconv.Itoa(n)+"/baseline", func(b *testing.B) {
			benchSort(b, n, intf, func(s []int) {})
		})
		b.Run("int-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, intf, func(s []int) { sortkernels.Int(s) })
		})
		b.Run("int-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, intf, slices.Sort[[]int])
		})
		b.Run("int-n"+strconv.Itoa(n)+"/interp", func(b *testing.B) {
			benchSort(b, n, intf, func(s []int) { prog.EvalInto(s, s) })
		})
	}
	for _, n := range []int{8, 16} {
		b.Run("uint64-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Uint64, func(s []uint64) { sortkernels.Uint64(s) })
		})
		b.Run("uint64-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Uint64, slices.Sort[[]uint64])
		})
		b.Run("float64-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Float64, func(s []float64) { sortkernels.Float64(s) })
		})
		b.Run("float64-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Float64, slices.Sort[[]float64])
		})
	}
}

// BenchmarkSortDispatch: the public shufflenet.Sort entry point —
// kernel dispatch overhead included — against slices.Sort, through the
// kernel range (8, 16) and past it into the fallback (24, 32, 64).
func BenchmarkSortDispatch(b *testing.B) {
	intf := func(rng *rand.Rand) int { return int(rng.Int63()) }
	for _, n := range []int{8, 16, 24, 32, 64} {
		b.Run("int-n"+strconv.Itoa(n)+"/sort", func(b *testing.B) {
			benchSort(b, n, intf, shufflenet.Sort[int])
		})
		b.Run("int-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, intf, slices.Sort[[]int])
		})
	}
}

// BenchmarkProgramEvalScratch proves the allocation-free Program
// evaluation path: EvalInto with a caller-owned scratch buffer must
// report 0 allocs/op (Eval, by contrast, allocates its result).
func BenchmarkProgramEvalScratch(b *testing.B) {
	prog := netbuild.DepthOptimal(16).Compile()
	rng := rand.New(rand.NewSource(42))
	in := make([]int, 16)
	for i := range in {
		in[i] = rng.Int()
	}
	out := make([]int, 16)
	b.Run("evalinto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog.EvalInto(out, in)
		}
	})
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = prog.Eval(in)
		}
	})
}

// The scratch path's zero-allocation property is load-bearing (the
// scalar 0-1 oracle and the dispatcher fallback rely on it), so it is
// asserted as a test too, not just visible in benchmark output.
func TestEvalIntoZeroAllocs(t *testing.T) {
	prog := netbuild.DepthOptimal(16).Compile()
	in := make([]int, 16)
	out := make([]int, 16)
	for i := range in {
		in[i] = 16 - i
	}
	if allocs := testing.AllocsPerRun(100, func() { prog.EvalInto(out, in) }); allocs != 0 {
		t.Errorf("EvalInto: %v allocs/op, want 0", allocs)
	}
}
