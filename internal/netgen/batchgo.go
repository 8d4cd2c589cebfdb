package netgen

// Pure-Go batch kernel emission (ModeBatch): for every width and
// batch family, two fused kernels that sort many small slices per
// call —
//
//   - batchCols<N><Kind>(data, m): column-major ("vertical") layout,
//     column w at data[w*m:(w+1)*m], logical row r = {data[w*m+r]}w.
//     One loop over rows; the whole comparator schedule runs on locals
//     per row, so the comparator cost is amortized over the batch with
//     no per-slice dispatch and, in the MinMax family, no
//     data-dependent branches.
//   - batchFlat<N><Kind>(data, m): row-major layout, row r contiguous
//     at data[r*n:(r+1)*n]. Same fused schedule, one slice-header bound
//     check per row instead of per call.
//
// On amd64 the columnar layout additionally gets AVX-512 kernels (see
// batchasm.go); these Go versions are the portable fallback and the
// differential oracle for them.

import (
	"fmt"
	"strings"
)

// batchKinds lists the families that get batch kernels: the Func
// family is excluded (a per-element comparison callback defeats the
// point of a fused batch pass).
var batchKinds = []Kind{KindMinMax, KindSwap}

// batchFile returns the generated file holding one family's batch
// kernels.
func (k Kind) batchFile() string {
	return "batch_" + strings.ToLower(k.String()) + ".go"
}

// genBatchKindFile emits every batch kernel of one family, as the file
// name the family lives in plus its contents.
func genBatchKindFile(opts Options, kind Kind, kernels []kernel) (string, []byte, error) {
	var b strings.Builder
	header(opts, &b)
	fmt.Fprintf(&b, "package %s\n\nimport \"cmp\"\n\n", opts.Package)
	for i, k := range kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		genBatchKernel(&b, kind, k, false)
		b.WriteString("\n")
		genBatchKernel(&b, kind, k, true)
	}
	src, err := gofmt(b.String(), kind.batchFile())
	return kind.batchFile(), src, err
}

// genBatchKernel emits the column-major (flat false) or row-major
// (flat true) fused kernel of one width.
func genBatchKernel(b *strings.Builder, kind Kind, k kernel, flat bool) {
	// elem(w) is the expression of slot w of the current row.
	var name string
	var elem func(w int) string
	if flat {
		name = fmt.Sprintf("batchFlat%d%s", k.n, kind)
		fmt.Fprintf(b, "// %s sorts each of the m contiguous width-%d rows of a\n", name, k.n)
		fmt.Fprintf(b, "// row-major batch in place: row r is data[r*%d:(r+1)*%d].\n", k.n, k.n)
		elem = func(w int) string { return fmt.Sprintf("s[%d]", w) }
	} else {
		name = fmt.Sprintf("batchCols%d%s", k.n, kind)
		fmt.Fprintf(b, "// %s sorts each of the m rows of a %d-column\n", name, k.n)
		fmt.Fprintf(b, "// column-major batch: column w is data[w*m:(w+1)*m], row r is the\n")
		fmt.Fprintf(b, "// %d values {data[w*m+r]}. Depth %d, size %d", k.n, k.depth, k.size)
		if k.note != "" {
			fmt.Fprintf(b, ", %s", k.note)
		}
		b.WriteString(".\n")
		elem = func(w int) string { return fmt.Sprintf("c%d[r]", w) }
	}
	if kind == KindMinMax {
		b.WriteString("// Float input must be NaN-free (callers prescan); ±0 bit patterns\n// are preserved as a multiset.\n")
	}
	fmt.Fprintf(b, "func %s%s(data []T, m int) {\n", name, kind.typeParams())
	if flat {
		b.WriteString("\tfor r := 0; r < m; r++ {\n")
		fmt.Fprintf(b, "\t\ts := data[r*%d : r*%d+%d : r*%d+%d]\n", k.n, k.n, k.n, k.n, k.n)
	} else {
		for w := 0; w < k.n; w++ {
			fmt.Fprintf(b, "\tc%d := data[%d*m : %d*m]\n", w, w, w+1)
		}
		b.WriteString("\tfor r := range c0 {\n")
	}
	b.WriteString("\t\t")
	writeList(b, k.n, func(w int) string { return fmt.Sprintf("v%d", w) })
	b.WriteString(" := ")
	writeList(b, k.n, elem)
	b.WriteString("\n")
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n\t\t// level %d\n", li+1)
		for _, p := range lv {
			kind.exchange(b, "\t\t", p[0], p[1])
		}
	}
	b.WriteString("\n\t\t")
	writeList(b, k.n, elem)
	b.WriteString(" = ")
	writeList(b, k.n, func(w int) string { return fmt.Sprintf("v%d", k.outPerm[w]) })
	b.WriteString("\n\t}\n}\n")
}
