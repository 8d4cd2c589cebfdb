package netgen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
)

func TestGenerateBatchFiles(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: AllModes}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kern.go", "kernels_minmax.go", "kernels_swap.go", "kernels_func.go",
		"batch.go", "batch_minmax.go", "batch_swap.go", "batch_amd64.go", "batch_amd64.s",
	}
	if len(files) != len(want) {
		t.Fatalf("got %d files, want %d", len(files), len(want))
	}
	for _, name := range want {
		if _, ok := files[name]; !ok {
			t.Errorf("missing file %s", name)
		}
	}
	for name, src := range files {
		if !bytes.HasPrefix(src, []byte("// Code generated by")) {
			t.Errorf("%s: missing generated-code header", name)
		}
		if strings.HasSuffix(name, ".s") {
			continue
		}
		fmted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: does not parse: %v", name, err)
		}
		if !bytes.Equal(fmted, src) {
			t.Errorf("%s: not gofmt-clean", name)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, name, src, parser.ParseComments); err != nil {
			t.Errorf("%s: parse error: %v", name, err)
		}
	}

	minmax := string(files["batch_minmax.go"])
	for _, fn := range []string{"func batchCols2MinMax[T cmp.Ordered](data []T, m int)", "func batchFlat7MinMax[T cmp.Ordered](data []T, m int)"} {
		if !strings.Contains(minmax, fn) {
			t.Errorf("batch_minmax.go: missing %q", fn)
		}
	}
	if !strings.Contains(string(files["batch_swap.go"]), "func batchFlat7Swap[T cmp.Ordered](data []T, m int)") {
		t.Error("batch_swap.go: missing batchFlat7Swap")
	}
	meta := string(files["batch.go"])
	for _, frag := range []string{
		"BatchMinWidth = 2", "BatchMaxWidth = 7",
		"func Batch[T cmp.Ordered](data []T, m int) bool",
		"func BatchFlat[T cmp.Ordered](data []T, width int) bool",
		"case []float64:\n\t\treturn flatMinMax(v, m, width, simdFloat64)",
		"return colsSwap(data, m, n)",
		"func SetBatchSIMD(on bool) (prev bool)",
	} {
		if !strings.Contains(meta, frag) {
			t.Errorf("batch.go: missing %q", frag)
		}
	}
	asm := string(files["batch_amd64.s"])
	for _, frag := range []string{
		"TEXT ·simdCols4Int(SB), NOSPLIT, $0-16",
		"TEXT ·simdCols7Float64(SB), NOSPLIT, $0-16",
		"TEXT ·simdTransTo7(SB), NOSPLIT, $0-24",
		"TEXT ·simdTransFrom2(SB), NOSPLIT, $0-24",
		"TEXT ·cpuidex(SB), NOSPLIT, $0-24",
		"VPMINSQ", "VPMINUQ", "VCMPPD $0x11", "VPUNPCKLQDQ", "VSHUFI64X2",
	} {
		if !strings.Contains(asm, frag) {
			t.Errorf("batch_amd64.s: missing %q", frag)
		}
	}
}

func TestGenerateBatchDeterministic(t *testing.T) {
	opts := Options{Package: "kern", Command: "cmd", Modes: AllModes}
	a, err := Generate(opts, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(opts, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: two runs differ", name)
		}
	}
}

func TestGenerateBatchOnlyMode(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("got %d files, want 5", len(files))
	}
	if _, ok := files["kern.go"]; ok {
		t.Error("batch-only mode emitted the scalar meta file")
	}
}

// Widths beyond 16 get pure-Go batch kernels but no SIMD: one zmm
// register holds eight 64-bit lanes and the transpose tops out at 16
// columns.
func TestGenerateBatchWideWidths(t *testing.T) {
	progs := []*network.Program{netbuild.MergeExchange(20).Compile()}
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := files["batch_amd64.s"]; ok {
		t.Error("emitted AVX-512 kernels for widths beyond 16")
	}
	if !strings.Contains(string(files["batch_minmax.go"]), "func batchCols20MinMax[T cmp.Ordered](data []T, m int)") {
		t.Error("batch_minmax.go: missing the pure-Go width-20 kernel")
	}

	progs = []*network.Program{netbuild.BestKnown(4).Compile(), netbuild.MergeExchange(20).Compile()}
	files, err = Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, progs)
	if err != nil {
		t.Fatal(err)
	}
	asm, ok := files["batch_amd64.s"]
	if !ok {
		t.Fatal("mixed widths: no AVX-512 file for the narrow kernel")
	}
	if strings.Contains(string(asm), "simdCols20") {
		t.Error("batch_amd64.s: emitted a width-20 SIMD kernel")
	}
}

func TestGenerateBatchErrors(t *testing.T) {
	progs := testPrograms(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"duplicate mode", Options{Package: "p", Command: "c", Modes: []Mode{ModeBatch, ModeBatch}}},
		{"unknown mode", Options{Package: "p", Command: "c", Modes: []Mode{Mode(99)}}},
		{"package collision", Options{Package: "batch", Command: "c", Modes: []Mode{ModeBatch}}},
	} {
		if _, err := Generate(tc.opts, progs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestBatchScheduleMirrorsScalar pins that both emission modes compile
// the same program into the same comparator schedule: every exchange
// line of the scalar kernel appears in the columnar batch kernel with
// the locals renamed, in the same order — for the min/max family
// (the "= min(" lines) and the compare-and-swap family (the "if"
// lines).
func TestBatchScheduleMirrorsScalar(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: AllModes}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	extract := func(src, fn, marker string) []string {
		body := string(src)
		i := strings.Index(body, "func "+fn+"[")
		if i < 0 {
			t.Fatalf("missing func %s", fn)
		}
		body = body[i:]
		if j := strings.Index(body, "\n}\n"); j >= 0 {
			body = body[:j]
		}
		var ops []string
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimSpace(line)
			if strings.Contains(line, marker) {
				ops = append(ops, line)
			}
		}
		return ops
	}
	for _, fam := range []struct{ kind, marker string }{{"MinMax", "= min("}, {"Swap", "if v"}} {
		lower := strings.ToLower(fam.kind)
		for _, n := range []int{2, 4, 7} {
			scalar := extract(string(files["kernels_"+lower+".go"]), fmt.Sprintf("sort%d%s", n, fam.kind), fam.marker)
			batch := extract(string(files["batch_"+lower+".go"]), fmt.Sprintf("batchCols%d%s", n, fam.kind), fam.marker)
			if len(scalar) == 0 || len(scalar) != len(batch) {
				t.Fatalf("%s n=%d: %d scalar exchanges vs %d batch exchanges", fam.kind, n, len(scalar), len(batch))
			}
			for i := range scalar {
				if scalar[i] != batch[i] {
					t.Errorf("%s n=%d exchange %d: scalar %q != batch %q", fam.kind, n, i, scalar[i], batch[i])
				}
			}
		}
	}
}
