package shufflenet

import (
	"cmp"
	"slices"
	"unsafe"

	"shufflenet/sortkernels"
)

// Sort sorts s in place in ascending order. For len(s) <=
// sortkernels.MaxWidth (16) it dispatches to a generated
// sorting-network kernel — the curated depth-optimal comparator
// schedule for that width, fully unrolled with every element held in a
// local. The int, uint64 and float64 element types take the min/max
// kernels, whose compare-exchanges compile to conditional moves rather
// than branches; every other type takes the compare-and-swap kernels.
// Longer slices fall back to slices.Sort.
//
// Semantics match slices.Sort, NaNs included: a comparator network
// cannot order elements an incomparable NaN sits between, so Sort
// first scans for NaN (a handful of self-compares, compiled away for
// types without NaN) and hands any hit to slices.Sort, which places
// NaNs first. The one freedom Sort takes is the order of equal
// elements: on float64 it places -0 before +0.
func Sort[T cmp.Ordered](s []T) {
	if len(s) <= sortkernels.MaxWidth && !hasNaN(s) && sortkernels.Ordered(s) {
		return
	}
	slices.Sort(s)
}

// hasNaN reports whether s contains a NaN (the only value with v != v).
// For element types without NaN it is constant false, so the scan
// compiles away.
func hasNaN[T cmp.Ordered](s []T) bool {
	if !mayBeNaN[T]() {
		return false
	}
	for _, v := range s {
		if v != v {
			return true
		}
	}
	return false
}

// mayBeNaN reports whether T has NaN values, that is, whether it is a
// floating-point type. It stores a quiet-NaN bit pattern of T's size
// into a T and asks whether the result differs from itself: for every
// integer type x != x folds to the constant false at compile time,
// which is what lets hasNaN skip its loop there, and strings (two
// words) never take the probe.
func mayBeNaN[T cmp.Ordered]() bool {
	var x T
	switch unsafe.Sizeof(x) {
	case 8:
		*(*uint64)(unsafe.Pointer(&x)) = 0x7ff8000000000000
	case 4:
		*(*uint32)(unsafe.Pointer(&x)) = 0x7fc00000
	default:
		return false
	}
	return x != x
}

// SortFunc sorts s in place by the strict weak ordering less,
// dispatching to the generated network kernels below
// sortkernels.MaxWidth elements exactly like Sort (one less call per
// comparator) and to slices.SortFunc above. The sort is not stable.
func SortFunc[T any](s []T, less func(a, b T) bool) {
	if len(s) <= sortkernels.MaxWidth && sortkernels.Func(s, less) {
		return
	}
	slices.SortFunc(s, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}
