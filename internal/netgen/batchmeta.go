package netgen

// Batch meta-file emission (ModeBatch): "batch.go" carries the public
// batch API of the generated package — shape validation, the generic
// Batch/BatchFlat entry points and their per-family width dispatchers,
// the SIMD kernel table that batch_amd64.go fills in at init when
// AVX-512 is available, the pooled transpose scratch behind the
// row-major SIMD path, and the SetBatchSIMD test/bench toggle.

import (
	"fmt"
	"strings"
)

// simdWidths lists the kernel widths that get AVX-512 columnar kernels
// and transpose helpers: every element is a 64-bit scalar, eight lanes
// per zmm register, and the two-block transpose tops out at 16 columns.
func simdWidths(kernels []kernel) []int {
	var out []int
	for _, k := range kernels {
		if k.n <= 16 {
			out = append(out, k.n)
		}
	}
	return out
}

// genBatchMetaFile emits "batch.go".
func genBatchMetaFile(opts Options, kernels []kernel) (string, []byte, error) {
	simd := len(simdWidths(kernels)) > 0

	var b strings.Builder
	header(opts, &b)
	b.WriteString(`// Batch entry points: sort many same-width slices per call.
//
// Batch takes the column-major ("vertical") layout — data holds n
// columns of length m, column w at data[w*m:(w+1)*m], and logical row
// r is the n values {data[w*m+r]}. Every row is sorted in place.
// BatchFlat takes the row-major layout — m contiguous rows of width n.
// Both report whether a kernel of that width was available; on false
// the data is untouched.
`)
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	if simd {
		b.WriteString("import (\n\t\"cmp\"\n\t\"sync\"\n\t\"unsafe\"\n)\n\n")
	} else {
		b.WriteString("import \"cmp\"\n\n")
	}

	minW, maxW := kernels[0].n, kernels[len(kernels)-1].n
	fmt.Fprintf(&b, "// Batch kernel widths span [BatchMinWidth, BatchMaxWidth];\n// BatchWidths lists the ones actually present.\nconst (\n\tBatchMinWidth = %d\n\tBatchMaxWidth = %d\n)\n\n", minW, maxW)
	b.WriteString("// BatchWidths returns the batch kernel widths available, ascending.\nfunc BatchWidths() []int {\n\treturn []int{")
	writeList(&b, len(kernels), func(i int) string { return fmt.Sprint(kernels[i].n) })
	b.WriteString("}\n}\n\n")

	// SIMD switches. Emitted even without SIMD kernels so the API is
	// stable across generation configurations.
	b.WriteString(`// batchSIMDAvail records whether the CPU supports the AVX-512 batch
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

`)

	// simdArg threads the element type's row of simdCols through to the
	// min/max dispatchers; without SIMD kernels it vanishes.
	simdArg := func(row string) string {
		if !simd {
			return ""
		}
		return ", " + row
	}
	if simd {
		b.WriteString("// Rows of simdCols: the element types the AVX-512 kernels serve.\nconst (\n")
		for i, e := range simdElems {
			if i == 0 {
				fmt.Fprintf(&b, "\tsimd%s = iota\n", e)
			} else {
				fmt.Fprintf(&b, "\tsimd%s\n", e)
			}
		}
		b.WriteString(")\n\n")
		fmt.Fprintf(&b, `// simdCols holds the AVX-512 columnar kernels by element type and
// width, and batchTransTo and batchTransFrom the transposes between the
// row-major and column-major layouts: batchTransTo[n] gathers m rows of
// width n into columns, batchTransFrom[n] scatters them back. The amd64
// init fills them in when the CPU supports AVX-512; every element is a
// 64-bit scalar, hence the untyped pointers.
var (
	simdCols       [%d][BatchMaxWidth + 1]func(base unsafe.Pointer, m int)
	batchTransTo   [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
	batchTransFrom [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
)

// batchScratch pools the column-major scratch of the row-major SIMD
// path, shared by the 64-bit element types.
var batchScratch = sync.Pool{New: func() any { return new([]uint64) }}

`, len(simdElems))
	}

	for _, l := range []struct{ fn, param, dims, count, width, prefix, doc string }{
		{"Batch", "m", "batchDims", "n", "n", "cols", `// Batch sorts, in place, every row of the column-major batch: data
// holds len(data)/m columns of length m, column w at
// data[w*m:(w+1)*m]. It reports whether a kernel of that width was
// available; on false the data is untouched.`},
		{"BatchFlat", "width", "batchFlatDims", "m", "width", "flat", `// BatchFlat sorts, in place, every row of the row-major batch: data
// holds len(data)/width contiguous rows of the given width. It
// reports whether a kernel of that width was available; on false the
// data is untouched.`},
	} {
		fmt.Fprintf(&b, `%s
//
// The element type picks the exchange idiom: int, uint64 and float64
// take the min/max kernels, every other type the compare-and-swap
// kernels. Float64 input must be NaN-free (callers prescan); ±0 bit
// patterns are preserved as a multiset.
func %s[T cmp.Ordered](data []T, %s int) bool {
	%s, trivial, ok := %s(len(data), %s, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
	switch v := any(data).(type) {
`, l.doc, l.fn, l.param, l.count, l.dims, l.param)
		// The min/max element types are exactly the ones the AVX-512
		// kernels serve.
		for _, e := range simdElems {
			fmt.Fprintf(&b, "\tcase []%s:\n\t\treturn %sMinMax(v, m, %s%s)\n", e.elem(), l.prefix, l.width, simdArg(fmt.Sprint("simd", e)))
		}
		fmt.Fprintf(&b, "\t}\n\treturn %sSwap(data, m, %s)\n}\n\n", l.prefix, l.width)
	}

	// Width dispatchers, one per layout and family. The min/max ones try
	// the AVX-512 kernel first.
	for _, kind := range batchKinds {
		for _, flat := range []bool{false, true} {
			layout, kernelName := "cols", "batchCols%d%s(data, m)"
			what := "column-major"
			if flat {
				layout, kernelName, what = "flat", "batchFlat%d%s(data, m)", "row-major"
			}
			fmt.Fprintf(&b, "// %s%s runs the width-n %s %s kernel", layout, kind, what, kind)
			params := ""
			if kind == KindMinMax && simd {
				params = ", simd"
				b.WriteString(":\n// the AVX-512 one of element type simd when enabled, the pure-Go one\n// otherwise.\n")
			} else {
				b.WriteString(".\n")
			}
			fmt.Fprintf(&b, "func %s%s[T cmp.Ordered](data []T, m, n%s int) bool {\n", layout, kind, params)
			if kind == KindMinMax && simd {
				b.WriteString("\tif batchSIMDOn {\n\t\tif k := simdCols[simd][n]; k != nil {\n")
				if flat {
					b.WriteString(`			sp := batchScratch.Get().(*[]uint64)
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
`)
				} else {
					b.WriteString("\t\t\tk(unsafe.Pointer(&data[0]), m)\n")
				}
				b.WriteString("\t\t\treturn true\n\t\t}\n\t}\n")
			}
			genSwitch(&b, "n", false, kernels, func(n int) string { return fmt.Sprintf(kernelName, n, kind) })
		}
	}

	src, err := gofmt(b.String(), "batch.go")
	return "batch.go", src, err
}
