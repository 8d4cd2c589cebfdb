// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

// Batch entry points: sort many same-width slices per call.
//
// Batch takes the column-major ("vertical") layout — data holds n
// columns of length m, column w at data[w*m:(w+1)*m], and logical row
// r is the n values {data[w*m+r]}. Every row is sorted in place.
// BatchFlat takes the row-major layout — m contiguous rows of width n.
// Both report whether a kernel of that width was available; on false
// the data is untouched.
package sortkernels

import (
	"cmp"
	"sync"
	"unsafe"
)

// Batch kernel widths span [BatchMinWidth, BatchMaxWidth];
// BatchWidths lists the ones actually present.
const (
	BatchMinWidth = 2
	BatchMaxWidth = 16
)

// BatchWidths returns the batch kernel widths available, ascending.
func BatchWidths() []int {
	return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
}

// batchSIMDAvail records whether the CPU supports the AVX-512 batch
// kernels (set at init by the amd64 build); batchSIMDOn is the live
// switch.
var (
	batchSIMDAvail bool
	batchSIMDOn    bool
)

// BatchSIMDAvailable reports whether AVX-512 batch kernels are
// compiled in and supported by this CPU.
func BatchSIMDAvailable() bool { return batchSIMDAvail }

// BatchSIMD reports whether the batch entry points currently use the
// AVX-512 kernels.
func BatchSIMD() bool { return batchSIMDOn }

// SetBatchSIMD toggles the AVX-512 batch kernels (a no-op request when
// they are unavailable) and returns the previous setting. It is meant
// for tests and benchmarks that pin down one implementation; it is not
// synchronized with concurrent Batch calls.
func SetBatchSIMD(on bool) (prev bool) {
	prev = batchSIMDOn
	batchSIMDOn = on && batchSIMDAvail
	return prev
}

// batchDims validates a column-major batch shape and returns its
// width. trivial means there is nothing to sort (no rows, or rows
// shorter than 2); ok is false when the shape fits no kernel.
func batchDims(lenData, m, maxWidth int) (n int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, m >= 0
	}
	if m <= 0 {
		return 0, false, false
	}
	n = lenData / m
	if n*m != lenData || n > maxWidth {
		return 0, false, false
	}
	return n, n < 2, true
}

// batchFlatDims validates a row-major batch shape and returns its row
// count, with the same trivial/ok split as batchDims.
func batchFlatDims(lenData, width, maxWidth int) (m int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, width >= 0
	}
	if width <= 0 {
		return 0, false, false
	}
	m = lenData / width
	if m*width != lenData || width > maxWidth {
		return 0, false, false
	}
	return m, width < 2, true
}

// Rows of simdCols: the element types the AVX-512 kernels serve.
const (
	simdInt = iota
	simdUint64
	simdFloat64
)

// simdCols holds the AVX-512 columnar kernels by element type and
// width, and batchTransTo and batchTransFrom the transposes between the
// row-major and column-major layouts: batchTransTo[n] gathers m rows of
// width n into columns, batchTransFrom[n] scatters them back. The amd64
// init fills them in when the CPU supports AVX-512; every element is a
// 64-bit scalar, hence the untyped pointers.
var (
	simdCols       [3][BatchMaxWidth + 1]func(base unsafe.Pointer, m int)
	batchTransTo   [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
	batchTransFrom [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
)

// batchScratch pools the column-major scratch of the row-major SIMD
// path, shared by the 64-bit element types.
var batchScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Batch sorts, in place, every row of the column-major batch: data
// holds len(data)/m columns of length m, column w at
// data[w*m:(w+1)*m]. It reports whether a kernel of that width was
// available; on false the data is untouched.
//
// The element type picks the exchange idiom: int, uint64 and float64
// take the min/max kernels, every other type the compare-and-swap
// kernels. Float64 input must be NaN-free (callers prescan); ±0 bit
// patterns are preserved as a multiset.
func Batch[T cmp.Ordered](data []T, m int) bool {
	n, trivial, ok := batchDims(len(data), m, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
	switch v := any(data).(type) {
	case []int:
		return colsMinMax(v, m, n, simdInt)
	case []uint64:
		return colsMinMax(v, m, n, simdUint64)
	case []float64:
		return colsMinMax(v, m, n, simdFloat64)
	}
	return colsSwap(data, m, n)
}

// BatchFlat sorts, in place, every row of the row-major batch: data
// holds len(data)/width contiguous rows of the given width. It
// reports whether a kernel of that width was available; on false the
// data is untouched.
//
// The element type picks the exchange idiom: int, uint64 and float64
// take the min/max kernels, every other type the compare-and-swap
// kernels. Float64 input must be NaN-free (callers prescan); ±0 bit
// patterns are preserved as a multiset.
func BatchFlat[T cmp.Ordered](data []T, width int) bool {
	m, trivial, ok := batchFlatDims(len(data), width, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
	switch v := any(data).(type) {
	case []int:
		return flatMinMax(v, m, width, simdInt)
	case []uint64:
		return flatMinMax(v, m, width, simdUint64)
	case []float64:
		return flatMinMax(v, m, width, simdFloat64)
	}
	return flatSwap(data, m, width)
}

// colsMinMax runs the width-n column-major MinMax kernel:
// the AVX-512 one of element type simd when enabled, the pure-Go one
// otherwise.
func colsMinMax[T cmp.Ordered](data []T, m, n, simd int) bool {
	if batchSIMDOn {
		if k := simdCols[simd][n]; k != nil {
			k(unsafe.Pointer(&data[0]), m)
			return true
		}
	}
	switch n {
	case 2:
		batchCols2MinMax(data, m)
	case 3:
		batchCols3MinMax(data, m)
	case 4:
		batchCols4MinMax(data, m)
	case 5:
		batchCols5MinMax(data, m)
	case 6:
		batchCols6MinMax(data, m)
	case 7:
		batchCols7MinMax(data, m)
	case 8:
		batchCols8MinMax(data, m)
	case 9:
		batchCols9MinMax(data, m)
	case 10:
		batchCols10MinMax(data, m)
	case 11:
		batchCols11MinMax(data, m)
	case 12:
		batchCols12MinMax(data, m)
	case 13:
		batchCols13MinMax(data, m)
	case 14:
		batchCols14MinMax(data, m)
	case 15:
		batchCols15MinMax(data, m)
	case 16:
		batchCols16MinMax(data, m)
	default:
		return false
	}
	return true
}

// flatMinMax runs the width-n row-major MinMax kernel:
// the AVX-512 one of element type simd when enabled, the pure-Go one
// otherwise.
func flatMinMax[T cmp.Ordered](data []T, m, n, simd int) bool {
	if batchSIMDOn {
		if k := simdCols[simd][n]; k != nil {
			sp := batchScratch.Get().(*[]uint64)
			s := *sp
			if cap(s) < len(data) {
				s = make([]uint64, len(data))
			}
			s = s[:len(data)]
			batchTransTo[n](unsafe.Pointer(&s[0]), unsafe.Pointer(&data[0]), m)
			k(unsafe.Pointer(&s[0]), m)
			batchTransFrom[n](unsafe.Pointer(&data[0]), unsafe.Pointer(&s[0]), m)
			*sp = s
			batchScratch.Put(sp)
			return true
		}
	}
	switch n {
	case 2:
		batchFlat2MinMax(data, m)
	case 3:
		batchFlat3MinMax(data, m)
	case 4:
		batchFlat4MinMax(data, m)
	case 5:
		batchFlat5MinMax(data, m)
	case 6:
		batchFlat6MinMax(data, m)
	case 7:
		batchFlat7MinMax(data, m)
	case 8:
		batchFlat8MinMax(data, m)
	case 9:
		batchFlat9MinMax(data, m)
	case 10:
		batchFlat10MinMax(data, m)
	case 11:
		batchFlat11MinMax(data, m)
	case 12:
		batchFlat12MinMax(data, m)
	case 13:
		batchFlat13MinMax(data, m)
	case 14:
		batchFlat14MinMax(data, m)
	case 15:
		batchFlat15MinMax(data, m)
	case 16:
		batchFlat16MinMax(data, m)
	default:
		return false
	}
	return true
}

// colsSwap runs the width-n column-major Swap kernel.
func colsSwap[T cmp.Ordered](data []T, m, n int) bool {
	switch n {
	case 2:
		batchCols2Swap(data, m)
	case 3:
		batchCols3Swap(data, m)
	case 4:
		batchCols4Swap(data, m)
	case 5:
		batchCols5Swap(data, m)
	case 6:
		batchCols6Swap(data, m)
	case 7:
		batchCols7Swap(data, m)
	case 8:
		batchCols8Swap(data, m)
	case 9:
		batchCols9Swap(data, m)
	case 10:
		batchCols10Swap(data, m)
	case 11:
		batchCols11Swap(data, m)
	case 12:
		batchCols12Swap(data, m)
	case 13:
		batchCols13Swap(data, m)
	case 14:
		batchCols14Swap(data, m)
	case 15:
		batchCols15Swap(data, m)
	case 16:
		batchCols16Swap(data, m)
	default:
		return false
	}
	return true
}

// flatSwap runs the width-n row-major Swap kernel.
func flatSwap[T cmp.Ordered](data []T, m, n int) bool {
	switch n {
	case 2:
		batchFlat2Swap(data, m)
	case 3:
		batchFlat3Swap(data, m)
	case 4:
		batchFlat4Swap(data, m)
	case 5:
		batchFlat5Swap(data, m)
	case 6:
		batchFlat6Swap(data, m)
	case 7:
		batchFlat7Swap(data, m)
	case 8:
		batchFlat8Swap(data, m)
	case 9:
		batchFlat9Swap(data, m)
	case 10:
		batchFlat10Swap(data, m)
	case 11:
		batchFlat11Swap(data, m)
	case 12:
		batchFlat12Swap(data, m)
	case 13:
		batchFlat13Swap(data, m)
	case 14:
		batchFlat14Swap(data, m)
	case 15:
		batchFlat15Swap(data, m)
	case 16:
		batchFlat16Swap(data, m)
	default:
		return false
	}
	return true
}
