package main

// The sortlib workload: library sorting through Sort, SortFunc and
// SortBatchFlat on seeded rows. It is the only workload that loads
// sortkernels, and it touches no engine layer.
//
// The rows are laid out in slabs of 1024 rows of one element type
// (int, uint64, float64, and int32 for the generic cmp.Ordered path).
// Sort slabs hold rows of widths 2..16 with about one row in 32 wider
// than 16 (the slices.Sort fallback) and, in float64 slabs, about one
// row in 256 holding a NaN. Batch slabs hold rows of one width, sorted
// by SortBatchFlat calls of m rows: m < 8 (the per-row path), 64 and
// 1024. Every width 2..16 appears once per element type and row count,
// so the amount of work does not depend on the seed. The whole row set
// (about 18 MB) exceeds L2, and a round restores all of it before
// sorting any of it, so kernels run on rows that are not L2-resident.
//
// Every sorted row is compared bit for bit with slices.Sort on a copy,
// computed at set-up.

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"time"

	"shufflenet"
	"shufflenet/sortkernels"
)

const (
	slabRows      = 1024
	sortSlabs     = 12 // per element type
	funcSlabs     = 4  // per element type (int, float64)
	wideEvery     = 32 // about one Sort row in wideEvery is wider than 16
	nanEvery      = 256
	maxWideWidth  = 40
	batchWideRows = 64
)

// elem bundles what the workload needs to know about one element type.
type elem[T cmp.Ordered] struct {
	name   string
	gen    func(rng *rand.Rand) T
	bits   func(T) uint64    // bit pattern, for bit-for-bit comparison
	kernel func([]T) bool    // the scalar kernel Sort dispatches to
	nan    func() T          // a NaN, or nil for types without one
	less   func(a, b T) bool // for SortFunc
}

var (
	elemInt = elem[int]{
		name:   "int",
		gen:    func(rng *rand.Rand) int { return rng.Intn(1<<20) - 1<<19 },
		bits:   func(v int) uint64 { return uint64(v) },
		kernel: sortkernels.Int,
		less:   func(a, b int) bool { return a < b },
	}
	elemUint64 = elem[uint64]{
		name:   "uint64",
		gen:    func(rng *rand.Rand) uint64 { return rng.Uint64() },
		bits:   func(v uint64) uint64 { return v },
		kernel: sortkernels.Uint64,
	}
	elemFloat64 = elem[float64]{
		name: "float64",
		// NormFloat64 never yields -0, so no row depends on how a sort
		// orders the equal values -0 and +0.
		gen:    func(rng *rand.Rand) float64 { return rng.NormFloat64() * 1e6 },
		bits:   math.Float64bits,
		kernel: sortkernels.Float64,
		nan:    math.NaN,
		less:   func(a, b float64) bool { return a < b },
	}
	elemInt32 = elem[int32]{
		name:   "int32",
		gen:    func(rng *rand.Rand) int32 { return int32(rng.Uint32()) },
		bits:   func(v int32) uint64 { return uint64(uint32(v)) },
		kernel: sortkernels.Ordered[int32],
	}
)

// slab is one unit of timed work: 1024 rows sorted through one API.
type slab interface {
	restore()
	rowCount() int
	api() string // span name of the end-to-end call
	run()
	// replay pushes the restored rows through the layers below api()
	// and records their spans as children of parent.
	replay(tr *tracer, trace int64, parent int)
	verify() (failed int)
	corrupt() // plants one wrong row (tests only)
	paths() (kernel, fallback, nan, fn int)
}

// rowSlab holds rows of varying widths sorted one call per row by Sort
// or SortFunc.
type rowSlab[T cmp.Ordered] struct {
	e                    elem[T]
	useFunc              bool
	data, pristine, want []T
	offs                 []int
	kernelRow            []bool // the Sort fast path handles this row
	nans                 int
}

func newRowSlab[T cmp.Ordered](e elem[T], useFunc bool, rng *rand.Rand, d *digester) *rowSlab[T] {
	s := &rowSlab[T]{e: e, useFunc: useFunc, offs: []int{0}}
	for r := 0; r < slabRows; r++ {
		w := 2 + rng.Intn(15)
		if rng.Intn(wideEvery) == 0 {
			w = 17 + rng.Intn(maxWideWidth-16)
		}
		nan := false
		for i := 0; i < w; i++ {
			s.pristine = append(s.pristine, e.gen(rng))
		}
		if e.nan != nil && !useFunc && rng.Intn(nanEvery) == 0 {
			s.pristine[len(s.pristine)-1-rng.Intn(w)] = e.nan()
			nan = true
			s.nans++
		}
		s.offs = append(s.offs, len(s.pristine))
		s.kernelRow = append(s.kernelRow, w <= sortkernels.MaxWidth && !nan)
	}
	s.data = slices.Clone(s.pristine)
	s.want = slices.Clone(s.pristine)
	for r := 0; r+1 < len(s.offs); r++ {
		slices.Sort(s.want[s.offs[r]:s.offs[r+1]])
	}
	d.str(e.name)
	d.ints(int64(len(s.offs)))
	for _, v := range s.pristine {
		d.ints(int64(e.bits(v)))
	}
	return s
}

func (s *rowSlab[T]) restore()      { copy(s.data, s.pristine) }
func (s *rowSlab[T]) rowCount() int { return len(s.offs) - 1 }

func (s *rowSlab[T]) api() string {
	if s.useFunc {
		return "shufflenet.SortFunc"
	}
	return "shufflenet.Sort"
}

func (s *rowSlab[T]) run() {
	if s.useFunc {
		for r := 0; r+1 < len(s.offs); r++ {
			shufflenet.SortFunc(s.data[s.offs[r]:s.offs[r+1]], s.e.less)
		}
		return
	}
	for r := 0; r+1 < len(s.offs); r++ {
		shufflenet.Sort(s.data[s.offs[r]:s.offs[r+1]])
	}
}

// replay splits a Sort slab into the kernel it dispatches to (direct
// sortkernels calls on the kernel-path rows) and the slices.Sort
// fallback (Sort on the wide and NaN rows, which goes straight to
// slices.Sort). What the Sort span has left is dispatch. SortFunc
// slabs are one layer and have no replay.
func (s *rowSlab[T]) replay(tr *tracer, trace int64, parent int) {
	if s.useFunc {
		return
	}
	tr.timed(trace, parent, "sortkernels.scalar", func() {
		for r := 0; r+1 < len(s.offs); r++ {
			if s.kernelRow[r] {
				s.e.kernel(s.data[s.offs[r]:s.offs[r+1]])
			}
		}
	})
	tr.timed(trace, parent, "slices.fallback", func() {
		for r := 0; r+1 < len(s.offs); r++ {
			if !s.kernelRow[r] {
				shufflenet.Sort(s.data[s.offs[r]:s.offs[r+1]])
			}
		}
	})
}

func (s *rowSlab[T]) verify() int {
	failed := 0
	for r := 0; r+1 < len(s.offs); r++ {
		if !sameBits(s.e.bits, s.data[s.offs[r]:s.offs[r+1]], s.want[s.offs[r]:s.offs[r+1]]) {
			failed++
		}
	}
	return failed
}

func (s *rowSlab[T]) corrupt() { plantRow(s.data[s.offs[0]:s.offs[1]]) }

func (s *rowSlab[T]) paths() (kernel, fallback, nan, fn int) {
	if s.useFunc {
		return 0, 0, 0, s.rowCount()
	}
	for _, k := range s.kernelRow {
		if k {
			kernel++
		}
	}
	return kernel, s.rowCount() - kernel - s.nans, s.nans, 0
}

// batchSlab holds rows of one width sorted by SortBatchFlat calls of m
// rows each.
type batchSlab[T cmp.Ordered] struct {
	e                    elem[T]
	width, m             int
	data, pristine, want []T
	// cols holds each call's rows transposed to column-major, for the
	// SortBatchCols replay; colsPristine restores it.
	cols, colsPristine []T
	calls              []int // row count of each call
	kernelPath         bool  // SortBatchFlat takes the columnar kernels
}

func newBatchSlab[T cmp.Ordered](e elem[T], width, m int, withNaN bool, rng *rand.Rand, d *digester) *batchSlab[T] {
	s := &batchSlab[T]{e: e, width: width, m: m}
	for rows := 0; rows < slabRows; {
		k := m
		if m < 8 {
			k = 3 + rng.Intn(5)
		}
		k = min(k, slabRows-rows)
		s.calls = append(s.calls, k)
		rows += k
	}
	s.pristine = make([]T, slabRows*width)
	for i := range s.pristine {
		s.pristine[i] = e.gen(rng)
	}
	if withNaN {
		s.pristine[rng.Intn(len(s.pristine))] = e.nan()
	}
	s.kernelPath = width <= sortkernels.BatchMaxWidth && m >= 8 && !withNaN
	s.data = slices.Clone(s.pristine)
	s.want = slices.Clone(s.pristine)
	for r := 0; r < slabRows; r++ {
		slices.Sort(s.want[r*width : (r+1)*width])
	}
	if s.kernelPath {
		s.colsPristine = make([]T, len(s.pristine))
		off := 0
		for _, k := range s.calls {
			for r := 0; r < k; r++ {
				for w := 0; w < width; w++ {
					s.colsPristine[off+w*k+r] = s.pristine[off+r*width+w]
				}
			}
			off += k * width
		}
		s.cols = slices.Clone(s.colsPristine)
	}
	d.str(e.name)
	d.ints(int64(width), int64(m), int64(len(s.calls)))
	for _, v := range s.pristine {
		d.ints(int64(e.bits(v)))
	}
	return s
}

func (s *batchSlab[T]) restore()      { copy(s.data, s.pristine) }
func (s *batchSlab[T]) rowCount() int { return slabRows }

func (s *batchSlab[T]) api() string {
	if s.kernelPath {
		return "shufflenet.SortBatchFlat"
	}
	return "sortbatch.perrow"
}

func (s *batchSlab[T]) run() {
	off := 0
	for _, k := range s.calls {
		shufflenet.SortBatchFlat(s.data[off:off+k*s.width], s.width)
		off += k * s.width
	}
}

// replay times the columnar kernel on the same calls already
// transposed (SortBatchCols), so that the flat call's remainder is the
// transpose; it then times the pure-Go columnar kernels with the
// AVX-512 ones switched off, as a reference that no end-to-end figure
// includes. Per-row batches have no kernel to replay.
func (s *batchSlab[T]) replay(tr *tracer, trace int64, parent int) {
	if !s.kernelPath {
		return
	}
	cols := func() {
		off := 0
		for _, k := range s.calls {
			shufflenet.SortBatchCols(s.cols[off:off+k*s.width], k)
			off += k * s.width
		}
	}
	copy(s.cols, s.colsPristine)
	tr.timed(trace, parent, "sortkernels.batch", cols)
	copy(s.cols, s.colsPristine)
	prev := sortkernels.SetBatchSIMD(false)
	tr.timed(trace, -1, "sortkernels.batch_go", cols)
	sortkernels.SetBatchSIMD(prev)
}

func (s *batchSlab[T]) verify() int {
	failed := 0
	for r := 0; r < slabRows; r++ {
		if !sameBits(s.e.bits, s.data[r*s.width:(r+1)*s.width], s.want[r*s.width:(r+1)*s.width]) {
			failed++
		}
	}
	return failed
}

func (s *batchSlab[T]) corrupt()                               { plantRow(s.data[:s.width]) }
func (s *batchSlab[T]) paths() (kernel, fallback, nan, fn int) { return 0, 0, 0, 0 }

func isBatchAPI(api string) bool {
	return api == "shufflenet.SortBatchFlat" || api == "sortbatch.perrow"
}

func sameBits[T any](bits func(T) uint64, got, want []T) bool {
	for i := range got {
		if bits(got[i]) != bits(want[i]) {
			return false
		}
	}
	return true
}

// plantRow makes a sorted row wrong: it moves the row's largest value
// to the front, or, when all values are equal, changes nothing that a
// bit-for-bit check could see — rows are drawn so that never happens.
func plantRow[T cmp.Ordered](row []T) {
	last := row[len(row)-1]
	copy(row[1:], row[:len(row)-1])
	row[0] = last
}

// sortlibInputs is the generated slab list.
type sortlibInputs struct {
	slabs []slab
}

func buildSortlib(seed int64) (*sortlibInputs, string, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDigester()
	in := &sortlibInputs{}
	for i := 0; i < sortSlabs; i++ {
		in.slabs = append(in.slabs,
			newRowSlab(elemInt, false, rng, d),
			newRowSlab(elemUint64, false, rng, d),
			newRowSlab(elemFloat64, false, rng, d),
			newRowSlab(elemInt32, false, rng, d))
	}
	for i := 0; i < funcSlabs; i++ {
		in.slabs = append(in.slabs,
			newRowSlab(elemInt, true, rng, d),
			newRowSlab(elemFloat64, true, rng, d))
	}
	for _, m := range []int{5, 64, 1024} {
		// Each element type sees every width once per row count; the
		// seed decides the order and the values.
		for _, w := range rng.Perm(sortkernels.BatchMaxWidth - 1) {
			w += 2
			in.slabs = append(in.slabs,
				newBatchSlab(elemInt, w, m, false, rng, d),
				newBatchSlab(elemUint64, w, m, false, rng, d),
				newBatchSlab(elemFloat64, w, m, false, rng, d),
				newBatchSlab(elemInt32, w, m, false, rng, d))
		}
	}
	// Rows too wide for a batch kernel, and a float64 batch with a NaN:
	// both sort row by row.
	wide := 17 + rng.Intn(8)
	in.slabs = append(in.slabs,
		newBatchSlab(elemInt, wide, batchWideRows, false, rng, d),
		newBatchSlab(elemFloat64, 8, batchWideRows, true, rng, d))
	// The order slabs run in is seeded too, so no layer always runs on
	// a warm predecessor's heels.
	rng.Shuffle(len(in.slabs), func(i, j int) { in.slabs[i], in.slabs[j] = in.slabs[j], in.slabs[i] })
	return in, d.sum(), nil
}

// sortlibOptions lets tests plant a wrong answer.
type sortlibOptions struct {
	plant bool // corrupt one row after the first pass
}

func runSortlib(cfg config) (*outcome, error) { return sortlib(cfg, sortlibOptions{}) }

func sortlib(cfg config, opt sortlibOptions) (*outcome, error) {
	in, digest, setup, err := timeSetup(func() (*sortlibInputs, string, error) { return buildSortlib(cfg.seed) })
	if err != nil {
		return nil, err
	}
	out := &outcome{digest: digest}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	// Each slab's untraced times.
	times := make(repeated, len(in.slabs))
	var untracedWall, tracedWall time.Duration
	tracedPasses, untracedPasses := 0, 0
	stop := deadline(cfg)
	for round := 0; round == 0 || time.Now().Before(stop); round++ {
		traced := tr != nil && round%2 == 1
		var rt *tracer
		if traced {
			rt = tr
		}
		for _, s := range in.slabs {
			s.restore()
		}
		ids := make([]int, len(in.slabs))
		passStart := time.Now()
		for i, s := range in.slabs {
			var d time.Duration
			ids[i], d = rt.timed(int64(i), -1, s.api(), s.run)
			if traced {
				continue
			}
			times.observe(i, d)
		}
		pass := time.Since(passStart)
		if traced {
			tracedWall += pass
			tracedPasses++
		} else {
			untracedWall += pass
			untracedPasses++
		}
		if opt.plant && round == 0 {
			in.slabs[0].corrupt()
		}
		for _, s := range in.slabs {
			out.attempted += int64(s.rowCount())
			out.failed += int64(s.verify())
		}
		if traced {
			for _, s := range in.slabs {
				s.restore()
			}
			for i, s := range in.slabs {
				s.replay(tr, int64(i), ids[i])
			}
		}
	}
	if tr != nil {
		out.layers = sortlibLayers(in, tr, tracedPasses, tracedWall, untracedPasses, untracedWall)
		return out, nil
	}
	slabMS := times.costs(0)
	var scalarRows, batchRows int
	var scalarMS, batchMS float64
	for i, s := range in.slabs {
		if isBatchAPI(s.api()) {
			batchRows += s.rowCount()
			batchMS += slabMS[i]
		} else {
			scalarRows += s.rowCount()
			scalarMS += slabMS[i]
		}
	}
	out.endToEnd = map[string]float64{
		"setup_s":     setup,
		"peak_rss_mb": selfPeakRSSMB(),
		"ops_per_s":   float64(scalarRows+batchRows) / ((scalarMS + batchMS) / 1e3),
		"p50_ms":      quantile(slabMS, 0.5),
		"p90_ms":      quantile(slabMS, 0.9),
	}
	out.named = map[string]metric{
		"setup_s":           {setup, "s"},
		"peak_rss_mb":       {out.endToEnd["peak_rss_mb"], "MB"},
		"scalar_rows_per_s": {float64(scalarRows) / (scalarMS / 1e3), "1/s"},
		"batch_rows_per_s":  {float64(batchRows) / (batchMS / 1e3), "1/s"},
	}
	return out, nil
}

// sortlibLayers turns the spans of the traced passes into per-row
// layer costs and reconciles them with the pass walls.
func sortlibLayers(in *sortlibInputs, tr *tracer, passes int, tracedWall time.Duration, untracedPasses int, untracedWall time.Duration) map[string]float64 {
	var kernelRows, fallbackRows, nanRows, funcRows, batchKernelRows int
	for _, s := range in.slabs {
		k, f, n, fn := s.paths()
		kernelRows += k
		fallbackRows += f
		nanRows += n
		funcRows += fn
		if s.api() == "shufflenet.SortBatchFlat" {
			batchKernelRows += s.rowCount()
		}
	}
	self := tr.selfTimes()
	perRow := func(us float64, rows int) float64 { return us * 1e3 / float64(rows*passes) }
	scalarTotal := tr.total("shufflenet.Sort") + tr.total("shufflenet.SortFunc")
	simd := 0.0
	if sortkernels.BatchSIMD() {
		simd = 1
	}
	layers := map[string]float64{
		"sortkernels.scalar.ns_per_row":          perRow(self["sortkernels.scalar"], kernelRows),
		"shufflenet.sort.dispatch_ns_per_row":    perRow(self["shufflenet.Sort"], kernelRows),
		"shufflenet.sortfunc.ns_per_row":         perRow(self["shufflenet.SortFunc"], funcRows),
		"slices.fallback.time_share":             self["slices.fallback"] / scalarTotal,
		"sortkernels.batch.kernel_ns_per_row":    perRow(self["sortkernels.batch"], batchKernelRows),
		"sortbatch.transpose_ns_per_row":         perRow(self["shufflenet.SortBatchFlat"], batchKernelRows),
		"sortkernels.batch_go.kernel_ns_per_row": perRow(self["sortkernels.batch_go"], batchKernelRows),
		"sortlib.rows.kernel":                    float64(kernelRows),
		"sortlib.rows.fallback":                  float64(fallbackRows),
		"sortlib.rows.nan":                       float64(nanRows),
		"sortlib.rows.func":                      float64(funcRows),
		"sortkernels.batch_simd":                 simd,
	}
	attributed := 0.0
	for _, name := range []string{
		"shufflenet.Sort", "sortkernels.scalar", "slices.fallback", "shufflenet.SortFunc",
		"shufflenet.SortBatchFlat", "sortkernels.batch", "sortbatch.perrow",
	} {
		attributed += self[name]
	}
	reconcile(layers, attributed, float64(tracedWall.Microseconds()), passes, float64(untracedWall.Microseconds()), untracedPasses)
	return layers
}
