// Package netgen compiles network.Program values into standalone,
// branchless Go sorting kernels: one generic function per width and
// exchange idiom (Kind), with the compare-exchanges grouped by level
// so that independent swaps sit adjacent for instruction-level
// parallelism.
//
// The emitted package has no dependency on this repository — it is the
// product surface of the lab: the Program IR, which PR 1 introduced as
// an evaluation engine, doubles here as a compiler backend. Emission
// is deterministic (same programs, same options, same bytes), which is
// what makes the committed sortkernels/ package a drift-gated build
// artifact (`make netgen-check`).
package netgen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"shufflenet/internal/network"
)

// Kind selects the exchange idiom of an emitted kernel family. Every
// family is generic over its element type: what separates them is how
// one compare-exchange is written, which is what benchmarks show
// matters, not the element type.
type Kind int

const (
	// KindMinMax emits kernels whose compare-exchange is the min/max
	// builtin pair: conditional moves, no data-dependent branches. The
	// dispatchers use it for int, uint64 and float64 (float64 input
	// must be NaN-free: min/max would turn one NaN into two).
	KindMinMax Kind = iota
	// KindSwap emits kernels whose compare-exchange is a
	// compare-and-swap `if`: one comparison per exchange, the input
	// multiset always preserved. The dispatchers use it for every other
	// cmp.Ordered type.
	KindSwap
	// KindFunc emits kernels ordered by a less callback (scalar mode
	// only).
	KindFunc
)

// kinds lists the scalar kernel families, in emission order.
var kinds = []Kind{KindMinMax, KindSwap, KindFunc}

func (k Kind) String() string {
	switch k {
	case KindMinMax:
		return "MinMax"
	case KindSwap:
		return "Swap"
	case KindFunc:
		return "Func"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// file returns the generated file that holds this family's kernels.
func (k Kind) file() string {
	return "kernels_" + strings.ToLower(k.String()) + ".go"
}

// typeParams returns the type parameter list of the family's kernels.
func (k Kind) typeParams() string {
	if k == KindFunc {
		return "[T any]"
	}
	return "[T cmp.Ordered]"
}

// exchange emits one compare-exchange on the locals v<lo>, v<hi>,
// indented by indent.
func (k Kind) exchange(b *strings.Builder, indent string, lo, hi int) {
	switch k {
	case KindMinMax:
		fmt.Fprintf(b, "%sv%d, v%d = min(v%d, v%d), max(v%d, v%d)\n", indent, lo, hi, lo, hi, lo, hi)
	case KindSwap:
		fmt.Fprintf(b, "%sif v%d < v%d {\n%s\tv%d, v%d = v%d, v%d\n%s}\n", indent, hi, lo, indent, lo, hi, hi, lo, indent)
	case KindFunc:
		fmt.Fprintf(b, "%sif less(v%d, v%d) {\n%s\tv%d, v%d = v%d, v%d\n%s}\n", indent, hi, lo, indent, lo, hi, hi, lo, indent)
	}
}

// Mode selects an emission mode of the generated package.
type Mode int

const (
	// ModeScalar emits the per-slice kernels of every family
	// ("kernels_<kind>.go") plus the "<package>.go" meta file
	// (dispatchers, schedules as data).
	ModeScalar Mode = iota
	// ModeBatch emits the batch kernels that sort many same-width
	// slices per call: pure-Go columnar and row-major kernels for the
	// MinMax and Swap families ("batch_<kind>.go"), the batch dispatch
	// surface ("batch.go"), and — for widths up to 16 — AVX-512
	// columnar kernels with layout-transpose helpers ("batch_amd64.s",
	// "batch_amd64.go").
	ModeBatch
)

// AllModes lists every emission mode, in emission order.
var AllModes = []Mode{ModeScalar, ModeBatch}

func (m Mode) String() string {
	switch m {
	case ModeScalar:
		return "scalar"
	case ModeBatch:
		return "batch"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures Generate.
type Options struct {
	// Package is the name of the generated package.
	Package string
	// Command is the regeneration command recorded in the
	// "Code generated by" header of every emitted file. It must not
	// contain machine-specific paths, or regeneration stops being
	// byte-identical across checkouts.
	Command string
	// Modes selects the emission modes; nil means scalar only.
	Modes []Mode
	// Doc is the package documentation appended to the generated
	// package clause, one line per element ("// " prefixes added).
	// A default is used when nil.
	Doc []string
	// Provenance maps a width to a short note on where its network
	// comes from (e.g. "depth-optimal (Bundala–Závodný bound)"); it is
	// quoted in the kernel doc comments.
	Provenance map[int]string
}

// kernel is one width's program plus everything precomputed for
// emission.
type kernel struct {
	n       int
	levels  [][][2]int
	outPerm []int // out[i] = v[outPerm[i]]
	size    int
	depth   int
	note    string
}

// Generate compiles the programs (one per distinct width, each on at
// least 2 wires) into a generated package: a map of file name to
// gofmt-formatted contents. Alongside the per-family kernel files it
// emits "<package>.go" with the package documentation, the runtime
// dispatchers, and the comparator schedules as data (Levels,
// OutputPerm, Depth, Size, Widths) so that tests can re-verify every
// committed kernel exhaustively.
func Generate(opts Options, progs []*network.Program) (map[string][]byte, error) {
	if opts.Package == "" {
		return nil, fmt.Errorf("netgen: empty package name")
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("netgen: no programs")
	}
	kernels := make([]kernel, 0, len(progs))
	seen := map[int]bool{}
	for _, p := range progs {
		n := p.Wires()
		if n < 2 {
			return nil, fmt.Errorf("netgen: program on %d wires (want >= 2)", n)
		}
		if n > 64 {
			return nil, fmt.Errorf("netgen: program on %d wires (want <= 64: kernels hold every element in a local)", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("netgen: two programs of width %d", n)
		}
		seen[n] = true
		kernels = append(kernels, kernel{
			n:       n,
			levels:  p.Levels(),
			outPerm: p.OutputPerm(),
			size:    p.Size(),
			depth:   p.Depth(),
			note:    opts.Provenance[n],
		})
	}
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].n < kernels[j].n })

	modes := opts.Modes
	if modes == nil {
		modes = []Mode{ModeScalar}
	}
	files := map[string][]byte{}
	add := func(name string, src []byte, err error) error {
		files[name] = src
		return err
	}
	seenMode := map[Mode]bool{}
	for _, mode := range modes {
		if seenMode[mode] {
			return nil, fmt.Errorf("netgen: mode %v listed twice", mode)
		}
		seenMode[mode] = true
		var err error
		switch mode {
		case ModeScalar:
			for _, k := range kinds {
				if err = add(genKindFile(opts, k, kernels)); err != nil {
					return nil, err
				}
			}
			err = add(genMetaFile(opts, kernels))
		case ModeBatch:
			if opts.Package == "batch" {
				return nil, fmt.Errorf("netgen: batch mode cannot target a package named %q (meta file collision)", opts.Package)
			}
			for _, k := range batchKinds {
				if err = add(genBatchKindFile(opts, k, kernels)); err != nil {
					return nil, err
				}
			}
			if err = add(genBatchMetaFile(opts, kernels)); err != nil {
				return nil, err
			}
			if len(simdWidths(kernels)) > 0 {
				asmSrc, goSrc, err := genBatchAmd64(opts, kernels)
				if err != nil {
					return nil, err
				}
				files["batch_amd64.s"] = asmSrc
				files["batch_amd64.go"] = goSrc
			}
		default:
			return nil, fmt.Errorf("netgen: unknown mode %v", mode)
		}
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func header(opts Options, b *strings.Builder) {
	fmt.Fprintf(b, "// Code generated by %q; DO NOT EDIT.\n\n", opts.Command)
}

// genKindFile emits every kernel of one family, as the file name the
// family lives in plus its contents.
func genKindFile(opts Options, kind Kind, kernels []kernel) (string, []byte, error) {
	var b strings.Builder
	header(opts, &b)
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	if kind != KindFunc {
		b.WriteString("import \"cmp\"\n\n")
	}
	for i, k := range kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		genKernel(&b, kind, k)
	}
	src, err := gofmt(b.String(), kind.file())
	return kind.file(), src, err
}

// writeList writes the n items format(0), ..., format(n-1) separated by
// ", ".
func writeList(b *strings.Builder, n int, format func(i int) string) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(format(i))
	}
}

// genKernel emits one branchless sorting function.
//
// The body loads every element into a local, applies the
// compare-exchange schedule level by level (blank lines separate
// levels: the exchanges within one level touch disjoint locals, so
// they are free to issue in parallel), and stores the locals back —
// through the output permutation when the source program has one
// (register-model networks). The family decides how one exchange is
// written (see Kind).
func genKernel(b *strings.Builder, kind Kind, k kernel) {
	name := fmt.Sprintf("sort%d%s", k.n, kind)
	doc := fmt.Sprintf("// %s sorts s[:%d] in place with a sorting-network kernel:\n// depth %d, size %d", name, k.n, k.depth, k.size)
	if k.note != "" {
		doc += ", " + k.note
	}
	doc += "."
	switch kind {
	case KindMinMax:
		doc += "\n// Exchanges are min/max pairs; float input must be NaN-free."
	case KindFunc:
		doc += "\n// less must be a strict weak ordering; the sort is not stable."
	}
	b.WriteString(doc + "\n")
	if kind == KindFunc {
		fmt.Fprintf(b, "func %s%s(s []T, less func(a, b T) bool) {\n", name, kind.typeParams())
	} else {
		fmt.Fprintf(b, "func %s%s(s []T) {\n", name, kind.typeParams())
	}
	fmt.Fprintf(b, "\t_ = s[%d]\n\t", k.n-1)
	writeList(b, k.n, func(i int) string { return fmt.Sprintf("v%d", i) })
	b.WriteString(" := ")
	writeList(b, k.n, func(i int) string { return fmt.Sprintf("s[%d]", i) })
	b.WriteString("\n")
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n\t// level %d\n", li+1)
		for _, p := range lv {
			kind.exchange(b, "\t", p[0], p[1])
		}
	}
	b.WriteString("\n\t")
	writeList(b, k.n, func(i int) string { return fmt.Sprintf("s[%d]", i) })
	b.WriteString(" = ")
	writeList(b, k.n, func(i int) string { return fmt.Sprintf("v%d", k.outPerm[i]) })
	b.WriteString("\n}\n")
}

// genSwitch emits the body of a width dispatcher: a switch on the width
// expression sw calling call(n) for every kernel width, false for any
// other width, true after a call or (when trivial is set) for widths 0
// and 1.
func genSwitch(b *strings.Builder, sw string, trivial bool, kernels []kernel, call func(n int) string) {
	fmt.Fprintf(b, "\tswitch %s {\n", sw)
	if trivial {
		b.WriteString("\tcase 0, 1:\n")
	}
	for _, k := range kernels {
		fmt.Fprintf(b, "\tcase %d:\n\t\t%s\n", k.n, call(k.n))
	}
	b.WriteString("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n\n")
}

// genMetaFile emits "<package>.go": package doc, dispatchers, and the
// comparator schedules as data.
func genMetaFile(opts Options, kernels []kernel) (string, []byte, error) {
	var b strings.Builder
	header(opts, &b)
	doc := opts.Doc
	if doc == nil {
		doc = []string{
			fmt.Sprintf("Package %s holds generated branchless sorting-network kernels.", opts.Package),
		}
	}
	for _, line := range doc {
		if line == "" {
			b.WriteString("//\n")
		} else {
			b.WriteString("// " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "package %s\n\nimport \"cmp\"\n\n", opts.Package)
	minW, maxW := kernels[0].n, kernels[len(kernels)-1].n
	fmt.Fprintf(&b, "// Kernel widths span [MinWidth, MaxWidth]; Widths lists the ones\n// actually present.\nconst (\n\tMinWidth = %d\n\tMaxWidth = %d\n)\n\n", minW, maxW)
	b.WriteString("// Widths returns the kernel widths available, ascending.\nfunc Widths() []int {\n\treturn []int{")
	writeList(&b, len(kernels), func(i int) string { return fmt.Sprint(kernels[i].n) })
	b.WriteString("}\n}\n\n")

	b.WriteString(`// Ordered sorts s in place with the generated kernel matching len(s)
// and reports whether one was available; slices shorter than 2 are
// trivially sorted. When it returns false, s is untouched.
//
// The element type picks the exchange idiom: int, uint64 and float64
// take the min/max kernels, which compile to conditional moves, and
// every other type the compare-and-swap kernels, one comparison per
// exchange. Float64 input must be NaN-free: min/max would turn one NaN
// into two, so callers prescan. On float64 the min/max kernels order
// -0 before +0.
func Ordered[T cmp.Ordered](s []T) bool {
	switch v := any(s).(type) {
	case []int:
		return sortMinMax(v)
	case []uint64:
		return sortMinMax(v)
	case []float64:
		return sortMinMax(v)
	}
	return sortSwap(s)
}

// Int is Ordered on []int.
func Int(s []int) bool { return Ordered(s) }

// Uint64 is Ordered on []uint64.
func Uint64(s []uint64) bool { return Ordered(s) }

// Float64 is Ordered on []float64; s must be NaN-free.
func Float64(s []float64) bool { return Ordered(s) }

// Func sorts s in place by less with the generated kernel matching
// len(s) and reports whether one was available; slices shorter than 2
// are trivially sorted. When it returns false, s is untouched. The sort
// is not stable.
func Func[T any](s []T, less func(a, b T) bool) bool {
`)
	genSwitch(&b, "len(s)", true, kernels, func(n int) string { return fmt.Sprintf("sort%dFunc(s, less)", n) })
	for _, kind := range []Kind{KindMinMax, KindSwap} {
		fmt.Fprintf(&b, "// sort%s runs the %s kernel matching len(s).\nfunc sort%s[T cmp.Ordered](s []T) bool {\n", kind, kind, kind)
		genSwitch(&b, "len(s)", true, kernels, func(n int) string { return fmt.Sprintf("sort%d%s(s)", n, kind) })
	}

	// schedules as data
	b.WriteString("// levels holds the compare-exchange schedule of every kernel, level\n// by level, as (min, max) wire pairs — the source of truth the tests\n// verify exhaustively against the 0-1 principle.\nvar levels = map[int][][][2]int{\n")
	for _, k := range kernels {
		fmt.Fprintf(&b, "\t%d: {\n", k.n)
		for _, lv := range k.levels {
			b.WriteString("\t\t{")
			writeList(&b, len(lv), func(i int) string { return fmt.Sprintf("{%d, %d}", lv[i][0], lv[i][1]) })
			b.WriteString("},\n")
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n\n")

	// output permutations (only non-identity ones are stored)
	b.WriteString("// outputPerms holds the output relabelings of kernels compiled from\n// register-model networks; widths not present use the identity.\nvar outputPerms = map[int][]int{\n")
	for _, k := range kernels {
		if isIdentity(k.outPerm) {
			continue
		}
		fmt.Fprintf(&b, "\t%d: {", k.n)
		writeList(&b, k.n, func(i int) string { return fmt.Sprint(k.outPerm[i]) })
		b.WriteString("},\n")
	}
	b.WriteString("}\n\n")

	b.WriteString(`// Levels returns a copy of the width-n kernel's compare-exchange
// schedule (nil if no kernel of that width exists).
func Levels(n int) [][][2]int {
	src, ok := levels[n]
	if !ok {
		return nil
	}
	out := make([][][2]int, len(src))
	for i, lv := range src {
		out[i] = append([][2]int(nil), lv...)
	}
	return out
}

// OutputPerm returns the output relabeling g of the width-n kernel
// (out[i] = v[g[i]] after the exchanges); the identity unless the
// kernel was compiled from a register-model network.
func OutputPerm(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	if p, ok := outputPerms[n]; ok {
		copy(g, p)
	}
	return g
}

// Depth returns the level count of the width-n kernel (0 if none).
func Depth(n int) int {
	return len(levels[n])
}

// Size returns the compare-exchange count of the width-n kernel
// (0 if none).
func Size(n int) int {
	total := 0
	for _, lv := range levels[n] {
		total += len(lv)
	}
	return total
}
`)
	name := opts.Package + ".go"
	src, err := gofmt(b.String(), name)
	return name, src, err
}

func isIdentity(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

func gofmt(src, file string) ([]byte, error) {
	out, err := format.Source([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("netgen: generated %s does not format: %v\n%s", file, err, src)
	}
	return out, nil
}
