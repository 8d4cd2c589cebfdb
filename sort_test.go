package shufflenet_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shufflenet"
	"shufflenet/internal/network"
	"shufflenet/sortkernels"
)

// Sort must agree with slices.Sort on every element type it fast-paths,
// across every width from the trivial cases through the kernel range
// and into the fallback.
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 2*sortkernels.MaxWidth; n++ {
		for trial := 0; trial < 50; trial++ {
			ints := make([]int, n)
			for i := range ints {
				ints[i] = rng.Intn(8) - 4 // dense duplicates
			}
			us := make([]uint64, n)
			fs := make([]float64, n)
			ss := make([]string, n)
			for i := range us {
				us[i] = rng.Uint64()
				fs[i] = rng.NormFloat64()
				ss[i] = strings.Repeat("ab", rng.Intn(3)) + string(rune('a'+rng.Intn(26)))
			}
			checkSort(t, ints)
			checkSort(t, us)
			checkSort(t, fs)
			checkSort(t, ss)
		}
	}
}

func checkSort[T interface {
	~int | ~uint64 | ~float64 | ~string
}](t *testing.T, in []T) {
	t.Helper()
	got := slices.Clone(in)
	want := slices.Clone(in)
	shufflenet.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Sort(%v) = %v, want %v", in, got, want)
	}
}

// Sort on float64 must match slices.Sort even with NaNs in the input:
// the fast path detects them and delegates, so NaNs come out first and
// the rest sorted.
func TestSortFloat64NaNMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nan := math.NaN()
	for n := 2; n <= sortkernels.MaxWidth; n++ {
		for trial := 0; trial < 50; trial++ {
			in := make([]float64, n)
			nans := 0
			for i := range in {
				if rng.Intn(3) == 0 {
					in[i] = nan
					nans++
				} else {
					in[i] = float64(rng.Intn(5))
				}
			}
			got := slices.Clone(in)
			shufflenet.Sort(got)
			gotNaNs := 0
			for _, v := range got {
				if math.IsNaN(v) {
					gotNaNs++
				}
			}
			if gotNaNs != nans {
				t.Fatalf("Sort(%v) = %v: %d NaNs in, %d out", in, got, nans, gotNaNs)
			}
			// slices.Sort parity: NaNs first, then ascending.
			if !slices.IsSorted(got[nans:]) {
				t.Fatalf("Sort(%v) = %v: non-NaN tail unsorted", in, got)
			}
			for _, v := range got[:nans] {
				if !math.IsNaN(v) {
					t.Fatalf("Sort(%v) = %v: NaNs not placed first", in, got)
				}
			}
		}
	}
}

func TestSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 2*sortkernels.MaxWidth; n++ {
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(10)
		}
		got := slices.Clone(in)
		shufflenet.SortFunc(got, func(a, b int) bool { return a > b }) // descending
		want := slices.Clone(in)
		slices.Sort(want)
		slices.Reverse(want)
		if !slices.Equal(got, want) {
			t.Fatalf("SortFunc(%v, >) = %v, want %v", in, got, want)
		}
	}
}

// Every committed kernel width is verified two ways, both exhaustive:
// the schedule data the kernels were generated from is rebuilt into a
// Program and checked over all 2^n 0-1 inputs on the bit-sliced (SWAR)
// kernel, and every scalar entry point executes its compiled kernel on
// all 2^n 0-1 inputs (the 0-1 principle then covers arbitrary ordered
// inputs, since each kernel is a fixed comparator schedule).
func TestKernelsSortAllZeroOneInputs(t *testing.T) {
	for _, n := range sortkernels.Widths() {
		// 1. schedule data, bit-sliced
		c := network.New(n)
		for _, lv := range sortkernels.Levels(n) {
			level := make(network.Level, 0, len(lv))
			for _, p := range lv {
				level = append(level, network.Comparator{Min: p[0], Max: p[1]})
			}
			c.AddLevel(level)
		}
		p := c.Compile()
		for i, g := range sortkernels.OutputPerm(n) {
			if i != g {
				t.Fatalf("width %d: committed kernel has a non-identity output permutation", n)
			}
		}
		state := make([]uint64, n)
		for base := 0; base < 1<<n; base += 64 {
			for w := 0; w < n; w++ {
				var word uint64
				for lane := 0; lane < 64 && base+lane < 1<<n; lane++ {
					if (base+lane)>>w&1 == 1 {
						word |= 1 << lane
					}
				}
				state[w] = word
			}
			p.EvalBits(state)
			for w := 0; w+1 < n; w++ {
				if bad := state[w] &^ state[w+1]; bad != 0 {
					t.Fatalf("width %d: schedule fails 0-1 input near mask %d", n, base)
				}
			}
		}
		// 2. the compiled kernels themselves, through every scalar
		// entry point: both exchange idioms (min/max on int, uint64
		// and float64; compare-and-swap on int32 and string) and the
		// less-callback family.
		checkZeroOne(t, "Int", n, func(b int) int { return b }, sortkernels.Int)
		checkZeroOne(t, "Uint64", n, func(b int) uint64 { return uint64(b) }, sortkernels.Uint64)
		checkZeroOne(t, "Float64", n, func(b int) float64 { return float64(b) }, sortkernels.Float64)
		checkZeroOne(t, "Ordered/int32", n, func(b int) int32 { return int32(b) }, sortkernels.Ordered[int32])
		checkZeroOne(t, "Ordered/string", n, func(b int) string { return "01"[b : b+1] }, sortkernels.Ordered[string])
		checkZeroOne(t, "Func", n, func(b int) int { return b }, func(s []int) bool {
			return sortkernels.Func(s, func(a, b int) bool { return a < b })
		})
	}
}

// checkZeroOne replays all 2^n 0-1 inputs of width n through one
// scalar kernel entry point, with bit b encoded as elem(b) (elem is
// increasing, so the sorted output is the zeros then the ones).
func checkZeroOne[T comparable](t *testing.T, name string, n int, elem func(b int) T, sort func([]T) bool) {
	t.Helper()
	zero, one := elem(0), elem(1)
	in := make([]T, n)
	for mask := 0; mask < 1<<n; mask++ {
		ones := 0
		for w := 0; w < n; w++ {
			in[w] = elem(mask >> w & 1)
			ones += mask >> w & 1
		}
		if !sort(in) {
			t.Fatalf("width %d: no %s kernel", n, name)
		}
		for w := 0; w < n; w++ {
			want := zero
			if w >= n-ones {
				want = one
			}
			if in[w] != want {
				t.Fatalf("width %d: %s kernel fails 0-1 input mask %d: %v", n, name, mask, in)
			}
		}
	}
}

// SortFunc must run exactly one less call per comparator of the
// width's kernel — the kernel alone, with no second sort behind it.
func TestSortFuncCallsLessOncePerComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 2; n <= sortkernels.MaxWidth; n++ {
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(100)
		}
		calls := 0
		shufflenet.SortFunc(in, func(a, b int) bool { calls++; return a < b })
		if calls != sortkernels.Size(n) {
			t.Errorf("n=%d: SortFunc called less %d times, want the kernel size %d", n, calls, sortkernels.Size(n))
		}
		if !slices.IsSorted(in) {
			t.Errorf("n=%d: SortFunc left %v unsorted", n, in)
		}
	}
}

// Sort on float64 keeps the exact bit patterns as a multiset: rows
// full of ±0 and extremes come out sorted with no value canonicalized
// (the min/max kernels order -0 before +0, slices.Sort may not, so
// the bits are compared as a multiset).
func TestSortFloat64PreservesBitMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	negZero := math.Copysign(0, -1)
	pool := []float64{0, negZero, 1, -1, math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, -5e-324}
	for n := 2; n <= sortkernels.MaxWidth; n++ {
		for trial := 0; trial < 50; trial++ {
			in := make([]float64, n)
			for i := range in {
				in[i] = pool[rng.Intn(len(pool))]
			}
			got := slices.Clone(in)
			shufflenet.Sort(got)
			want := slices.Clone(in)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("Sort(%v) = %v, want %v", in, got, want)
			}
			bits := func(s []float64) []uint64 {
				out := make([]uint64, len(s))
				for i, v := range s {
					out[i] = math.Float64bits(v)
				}
				slices.Sort(out)
				return out
			}
			if !slices.Equal(bits(got), bits(in)) {
				t.Fatalf("Sort(%v) = %v: bit multiset changed", in, got)
			}
		}
	}
}

// The kernel metadata must match the curated networks' shape: widths
// 2..16 contiguous, depths at the proven optima recorded in netbuild.
func TestKernelMeta(t *testing.T) {
	widths := sortkernels.Widths()
	if len(widths) != sortkernels.MaxWidth-sortkernels.MinWidth+1 {
		t.Fatalf("Widths() = %v: not contiguous over [%d, %d]", widths, sortkernels.MinWidth, sortkernels.MaxWidth)
	}
	wantDepth := []int{0, 0, 1, 3, 3, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 9}
	for _, n := range widths {
		if got := sortkernels.Depth(n); got != wantDepth[n] {
			t.Errorf("Depth(%d) = %d, want proven optimum %d", n, got, wantDepth[n])
		}
		if got := sortkernels.Size(n); got != len(flatten(sortkernels.Levels(n))) {
			t.Errorf("Size(%d) = %d disagrees with Levels", n, got)
		}
	}
}

func flatten(levels [][][2]int) [][2]int {
	var out [][2]int
	for _, lv := range levels {
		out = append(out, lv...)
	}
	return out
}

// FuzzSortT cross-checks Sort against slices.Sort on fuzzer-chosen
// inputs for every fast-pathed element type. The float64 lane skips
// NaN payloads so that it can compare with ==; the float32 lane keeps
// them (every NaN bit pattern included) and compares under
// cmp.Compare, which orders NaNs first and equal to each other.
func FuzzSortT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x40, 0x40, 1, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*64 {
			data = data[:8*64]
		}
		n := len(data) / 8
		ints := make([]int, 0, n)
		us := make([]uint64, 0, n)
		fs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			u := binary.LittleEndian.Uint64(data[8*i:])
			ints = append(ints, int(u))
			us = append(us, u)
			if f := math.Float64frombits(u); !math.IsNaN(f) {
				fs = append(fs, f)
			}
		}
		ss := make([]string, 0, len(data)%17)
		for i := 0; i < cap(ss); i++ {
			ss = append(ss, string(data[i%max(1, len(data)):]))
		}
		f32 := make([]float32, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			f32 = append(f32, math.Float32frombits(binary.LittleEndian.Uint32(data[i:])))
		}
		checkSort(t, ints)
		checkSort(t, us)
		checkSort(t, fs)
		checkSort(t, ss)
		got := slices.Clone(f32)
		want := slices.Clone(f32)
		shufflenet.Sort(got)
		slices.Sort(want)
		if slices.CompareFunc(got, want, cmp.Compare[float32]) != 0 {
			t.Fatalf("Sort(%v) = %v, want %v", f32, got, want)
		}
	})
}
