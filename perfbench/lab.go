package main

// The lab workload: offline research jobs run one at a time, each with
// nproc engine workers, over a seeded job list of fixed sizes:
//
//	check    exhaustive 0-1 checks at n = 20..26: sorters (Batcher's
//	         merge-exchange and Pratt's network behind a seeded standard
//	         level, a full 2^n scan) and non-sorters (early exit with a
//	         witness)
//	halver   exact ε of four random cross-matchings at n = 18..22
//	certify  DecomposeIterated → Theorem 4.1 → Certificate → Verify on
//	         iterated reverse delta networks with 2..4 blocks at
//	         n = 1024, submitted as bare circuits
//	optimum  cold-memo optimum searches at n = 16..18: butterflies
//	         (symmetric, the memo pays) and dense random circuits
//	         (trivial automorphism group, the memo under pressure)
//
// The list is kept short (about 0.7 s a round on a quiet machine) so
// that each job repeats twenty times or more in a run; see fastest.
//
// It loads network's SWAR kernel, sortcheck, par, halver, delta and
// core at full size and bypasses sortkernels and serve.
//
// Every answer is checked against one known independently: sorters
// sort; the non-sorters cannot by construction, and their witnesses
// are replayed through Program.Eval; certificates are replayed through
// Program.Eval; optimum witnesses are rechecked with
// pattern.Noncolliding; ε values of the smaller halvers are recomputed
// by a plain enumeration here. All answers are pinned on the first
// round and every later round must repeat them exactly, except the
// certificates (see certify).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
	"shufflenet/internal/sortcheck"
)

type jobKind int

const (
	kindCheck jobKind = iota
	kindHalver
	kindCertify
	kindOptimum
	numKinds
)

var kindNames = [numKinds]string{"check", "halver", "certify", "optimum"}

// labJob is one research job and the answer known for it.
type labJob struct {
	kind jobKind
	name string
	circ *network.Network
	l    int // certify: block height

	// check: the verdict known by construction.
	wantSorts bool
	// halver: ε recomputed by oracleEpsilon when the job is small
	// enough (NaN otherwise).
	oracleEps float64

	// The answer pinned on the first round.
	pinned bool
	pin    string
}

// labAnswer is what one run of a job produced, reduced to the text the
// pin compares.
type labAnswer struct {
	pin string
	err error // the output failed an independent check
}

const (
	oracleMaxWires      = 18
	optimumInstanceSeed = 1
)

func buildLab(seed int64) ([]*labJob, string, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDigester()
	var jobs []*labJob
	add := func(j *labJob) {
		j.oracleEps = math.NaN()
		jobs = append(jobs, j)
		d.str(j.name)
		d.ints(int64(j.kind), int64(j.l))
		d.str(j.circ.String())
	}

	// check: sorters behind a seeded standard level still sort; a
	// sorter whose last comparator is reversed cannot (it swaps the
	// already sorted input); nor can a network shallower than ⌈lg n⌉.
	sorter := func(name string, n int, build func(int) *network.Network) {
		add(&labJob{kind: kindCheck, name: fmt.Sprintf("%s-%d", name, n), circ: standardLevel(n, rng).Append(build(n)), wantSorts: true})
	}
	sorter("mergeexchange", 22, netbuild.MergeExchange)
	sorter("mergeexchange", 24, netbuild.MergeExchange)
	sorter("pratt", 22, netbuild.Pratt)
	for _, n := range []int{23, 25} {
		c := standardLevel(n, rng).Append(netbuild.MergeExchange(n))
		add(&labJob{kind: kindCheck, name: fmt.Sprintf("reversed-last-%d", n), circ: reverseLast(c)})
	}
	for _, n := range []int{20, 26} {
		add(&labJob{kind: kindCheck, name: fmt.Sprintf("shallow-%d", n), circ: netbuild.RandomLevels(n, bits.CeilLg(n)-1, rng)})
	}

	// halver: four cross-matching passes.
	for _, n := range []int{18, 20, 20, 22, 22} {
		add(&labJob{kind: kindHalver, name: fmt.Sprintf("crossmatch-%d", n), circ: halver.CrossMatchings(n, 4, rng)})
	}

	// certify: alternating butterfly and random full RDN blocks with
	// seeded glue permutations, flattened to a bare circuit.
	for _, c := range []struct{ n, blocks int }{{1024, 2}, {1024, 3}, {1024, 4}} {
		l := bits.Lg(c.n)
		it := delta.NewIterated(c.n)
		for b := 0; b < c.blocks; b++ {
			var pre perm.Perm
			if b > 0 {
				pre = perm.Random(c.n, rng)
			}
			if b%2 == 0 {
				it.AddBlock(pre, delta.Butterfly(l))
			} else {
				it.AddBlock(pre, delta.Random(l, 1.0, rng))
			}
		}
		circ, _ := it.ToNetwork()
		add(&labJob{kind: kindCertify, name: fmt.Sprintf("rdn-%dx%d", c.n, c.blocks), circ: circ, l: l})
	}

	// optimum: a butterfly, two stacked butterflies with random glue,
	// and dense random circuits. These instances are one fixed set for
	// every seed: the search's cost is heavy-tailed in the instance
	// (6..87 ms over relabelings of one 16-wire circuit; 5..23 ms over
	// relabelings of the butterfly), so seeded instances would make the
	// amount of work depend on the seed.
	fixed := rand.New(rand.NewSource(optimumInstanceSeed))
	bf, _ := delta.NewIterated(16).AddBlock(nil, delta.Butterfly(4)).ToNetwork()
	add(&labJob{kind: kindOptimum, name: "butterfly-16", circ: bf})
	bf2, _ := delta.NewIterated(16).AddBlock(nil, delta.Butterfly(4)).AddBlock(perm.Random(16, fixed), delta.Butterfly(4)).ToNetwork()
	add(&labJob{kind: kindOptimum, name: "butterfly2-16", circ: bf2})
	for _, c := range []struct{ n, depth int }{{16, 6}, {16, 6}, {18, 5}} {
		add(&labJob{kind: kindOptimum, name: fmt.Sprintf("random-%d-d%d", c.n, c.depth), circ: randnet.Levels(c.n, c.depth, fixed)})
	}
	return jobs, d.sum(), nil
}

// standardLevel is one seeded level of comparators that all put the
// minimum on the lower wire, so it leaves a sorted input sorted.
func standardLevel(n int, rng *rand.Rand) *network.Network {
	p := perm.Random(n, rng)
	lv := network.Level{}
	for i := 0; i+1 < n; i += 2 {
		lv = append(lv, network.Comparator{Min: min(p[i], p[i+1]), Max: max(p[i], p[i+1])})
	}
	return network.New(n).AddLevel(lv)
}

// reverseLast returns c with the direction of one comparator of its
// last level reversed. c is a standard sorting network, so a sorted
// input reaches that comparator sorted and leaves it unsorted.
func reverseLast(c *network.Network) *network.Network {
	out := network.New(c.Wires())
	for i, lv := range c.Levels() {
		lv = slices.Clone(lv)
		if i == c.Depth()-1 {
			lv[0].Min, lv[0].Max = lv[0].Max, lv[0].Min
		}
		out.AddLevel(lv)
	}
	return out
}

// relabel renames every wire w of c to q[w].
func relabel(c *network.Network, q perm.Perm) *network.Network {
	out := network.New(c.Wires())
	for _, lv := range c.Levels() {
		nl := make(network.Level, len(lv))
		for i, cp := range lv {
			nl[i] = network.Comparator{Min: q[cp.Min], Max: q[cp.Max]}
		}
		out.AddLevel(nl)
	}
	return out
}

// labRunner runs jobs and, on traced rounds, records their layer spans.
type labRunner struct {
	workers int
	plant   bool    // flip the next check verdict (tests only)
	tr      *tracer // nil on untraced rounds
	replay  time.Duration
	// kernel sums single-threaded BitBatch time and words for
	// par.efficiency and network.bitbatch.ns_per_word.
	kernel       time.Duration
	kernelWords  int64
	zeroOneWall  time.Duration
	optimalNanos time.Duration
}

// run executes one job and returns its answer; the returned duration
// is the job's end-to-end time (replays excluded).
func (r *labRunner) run(id int64, j *labJob) (labAnswer, time.Duration) {
	switch j.kind {
	case kindCheck:
		return r.check(id, j)
	case kindHalver:
		return r.halver(id, j)
	case kindCertify:
		return r.certify(id, j)
	default:
		return r.optimum(id, j)
	}
}

func (r *labRunner) check(id int64, j *labJob) (labAnswer, time.Duration) {
	n := j.circ.Wires()
	var ok bool
	var witness []int
	root, d := r.tr.timed(id, -1, "sortcheck.ZeroOne", func() {
		ok, witness = sortcheck.ZeroOne(n, j.circ, r.workers)
	})
	if r.plant {
		ok, r.plant = !ok, false
	}
	ans := labAnswer{pin: fmt.Sprint(ok, witness)}
	if ok != j.wantSorts {
		ans.err = fmt.Errorf("verdict %v, want %v", ok, j.wantSorts)
	} else if !ok && sortcheck.IsSorted(network.Compile(j.circ).Eval(witness)) {
		ans.err = fmt.Errorf("witness %v is sorted by the network", witness)
	}
	if r.tr != nil {
		r.zeroOneWall += d
		blocks, _ := network.ZeroOneBlocks(n)
		if !ok {
			blocks = int(zeroOneMask(witness)/64) + 1
		}
		r.replayKernel(id, root, j.circ, blocks, false)
	}
	return ans, d
}

// replayKernel times the layers below a SWAR checker on the same
// network: one Compile, and the single-threaded BitBatch kernel over
// the job's blocks. The kernel span covers the share of the parallel
// wall the kernel accounts for with perfect scaling (its single-thread
// time over the worker count); the rest of the checker's span is its
// own and par's.
func (r *labRunner) replayKernel(id int64, parent int, c *network.Network, blocks int, eval bool) {
	start := time.Now()
	var prog *network.Program
	r.tr.timed(id, parent, "network.Compile", func() { prog = network.Compile(c) })
	bb := network.NewBitBatch(prog)
	kstart := time.Now()
	for b := 0; b < blocks; b++ {
		if eval {
			bb.LoadBlock(uint64(b))
			bb.Eval()
		} else {
			bb.Run(uint64(b))
		}
	}
	k := time.Since(kstart)
	r.tr.add(id, parent, "network.BitBatch", kstart, kstart.Add(k/time.Duration(r.workers)))
	r.kernel += k
	r.kernelWords += int64(blocks)
	r.replay += time.Since(start)
}

func zeroOneMask(in []int) uint64 {
	var m uint64
	for i, v := range in {
		m |= uint64(v&1) << uint(i)
	}
	return m
}

func (r *labRunner) halver(id int64, j *labJob) (labAnswer, time.Duration) {
	var eps float64
	root, d := r.tr.timed(id, -1, "halver.Epsilon", func() { eps = halver.Epsilon(j.circ, r.workers) })
	ans := labAnswer{pin: fmt.Sprint(eps)}
	if !math.IsNaN(j.oracleEps) && eps != j.oracleEps {
		ans.err = fmt.Errorf("ε = %v, plain enumeration gives %v", eps, j.oracleEps)
	}
	if r.tr != nil {
		blocks, _ := network.ZeroOneBlocks(j.circ.Wires())
		r.replayKernel(id, root, j.circ, blocks, true)
	}
	return ans, d
}

func (r *labRunner) certify(id int64, j *labJob) (labAnswer, time.Duration) {
	start := time.Now()
	root := r.tr.add(id, -1, "lab.certify", start, start)
	var it *delta.Iterated
	var ok bool
	var an *core.Analysis
	var cert *core.Certificate
	var cerr, verr error
	r.tr.timed(id, root, "delta.DecomposeIterated", func() { it, ok = delta.DecomposeIterated(j.circ, j.l) })
	if ok {
		r.tr.timed(id, root, "core.Theorem41", func() { an = core.Theorem41(it, 0) })
		r.tr.timed(id, root, "core.Certificate", func() { cert, cerr = an.Certificate() })
		if cerr == nil {
			r.tr.timed(id, root, "core.Verify", func() { verr = cert.Verify(j.circ) })
		}
	}
	end := time.Now()
	r.tr.setEnd(root, end)
	switch {
	case !ok:
		return labAnswer{err: fmt.Errorf("DecomposeIterated refused an iterated RDN")}, end.Sub(start)
	case cerr != nil:
		return labAnswer{err: fmt.Errorf("no certificate: %v", cerr)}, end.Sub(start)
	case verr != nil:
		return labAnswer{err: fmt.Errorf("Verify rejected the certificate: %v", verr)}, end.Sub(start)
	}
	// The certificate itself is not pinned: DecomposeIterated walks a
	// map, so the decomposition it returns for one circuit (and with it
	// |D| and the certificate) can differ between calls. Every one of
	// them must replay.
	return labAnswer{pin: "verified", err: replayCertificate(j.circ, cert)}, end.Sub(start)
}

// replayCertificate checks a certificate without Verify: the two
// inputs are permutations equal except for M and M+1 swapped on W0 and
// W1, and Program.Eval routes them identically, so their outputs differ
// exactly by that swap. No network routing both inputs alike sorts
// both.
func replayCertificate(c *network.Network, cert *core.Certificate) error {
	n := c.Wires()
	if len(cert.Pi) != n || len(cert.PiPrime) != n {
		return fmt.Errorf("certificate width %d, circuit width %d", len(cert.Pi), n)
	}
	for w := 0; w < n; w++ {
		want := cert.Pi[w]
		switch w {
		case cert.W0:
			want = cert.M + 1
		case cert.W1:
			want = cert.M
		}
		if cert.PiPrime[w] != want || (w == cert.W0 && cert.Pi[w] != cert.M) || (w == cert.W1 && cert.Pi[w] != cert.M+1) {
			return fmt.Errorf("certificate inputs are not a swap of M, M+1 on wires %d, %d", cert.W0, cert.W1)
		}
	}
	prog := network.Compile(c)
	a, b := prog.Eval(cert.Pi), prog.Eval(cert.PiPrime)
	diff := 0
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		diff++
		if a[i]+b[i] != 2*cert.M+1 || (a[i] != cert.M && a[i] != cert.M+1) {
			return fmt.Errorf("outputs differ at rail %d in values other than M, M+1", i)
		}
	}
	if diff != 2 {
		return fmt.Errorf("outputs differ at %d rails, want 2", diff)
	}
	return nil
}

func (r *labRunner) optimum(id int64, j *labJob) (labAnswer, time.Duration) {
	var size int
	var p pattern.Pattern
	var set []int
	var err error
	_, d := r.tr.timed(id, -1, "core.OptimalNoncolliding", func() {
		size, p, set, err = core.OptimalNoncollidingOpt(context.Background(), j.circ, core.OptimalOptions{Workers: r.workers})
	})
	if r.tr != nil {
		r.optimalNanos += d
	}
	switch {
	case err != nil:
		return labAnswer{err: err}, d
	case !pattern.Noncolliding(j.circ, p, pattern.M(0)):
		return labAnswer{err: fmt.Errorf("optimum witness %v is not noncolliding", p)}, d
	case !slices.Equal(p.Set(pattern.M(0)), set) || len(set) != size:
		return labAnswer{err: fmt.Errorf("optimum size %d does not match its witness set %v", size, set)}, d
	}
	return labAnswer{pin: fmt.Sprintf("%d %s", size, p)}, d
}

// oracleEpsilon computes a halver's ε by plain enumeration: for every
// 0-1 input with k ones (k <= n/2), the share of ones that end in the
// lower half, and symmetrically for zeros.
func oracleEpsilon(c *network.Network) float64 {
	n := c.Wires()
	m := n / 2
	worst := 0.0
	in := make([]int, n)
	for mask := 1; mask < 1<<n-1; mask++ {
		ones := 0
		for i := range in {
			in[i] = mask >> i & 1
			ones += in[i]
		}
		out := c.Eval(in)
		lowOnes, highZeros := 0, 0
		for i := 0; i < m; i++ {
			lowOnes += out[i]
			highZeros += 1 - out[m+i]
		}
		if ones <= m {
			worst = math.Max(worst, float64(lowOnes)/float64(ones))
		}
		if zeros := n - ones; zeros <= m {
			worst = math.Max(worst, float64(highZeros)/float64(zeros))
		}
	}
	return worst
}

// labOptions lets tests plant a wrong answer and shrink the job list.
type labOptions struct {
	plant bool                      // flip the first check verdict of the first round
	jobs  func([]*labJob) []*labJob // filter applied after set-up
}

func runLab(cfg config) (*outcome, error) { return lab(cfg, labOptions{}) }

// labCounters are the obs registry counters the per-layer metrics read.
var labCounters = []string{
	"sortcheck.zeroone.masks", "sortcheck.zeroone.early_exits",
	"halver.epsilon.masks", "core.lemma41.collisions",
	"core.optimal.nodes", "core.optimal.memo.hits", "core.optimal.memo.misses",
	"core.optimal.memo.evictions", "core.optimal.dominance.cuts",
}

func counterValues(names []string) map[string]int64 {
	out := map[string]int64{}
	for _, n := range names {
		out[n] = obs.C(n).Value()
	}
	return out
}

func lab(cfg config, opt labOptions) (*outcome, error) {
	jobs, digest, setup, err := timeSetup(func() ([]*labJob, string, error) { return buildLab(cfg.seed) })
	if err != nil {
		return nil, err
	}
	if opt.jobs != nil {
		jobs = opt.jobs(jobs)
	}
	out := &outcome{digest: digest}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	workers := runtime.NumCPU()
	// Each job's untraced times.
	times := make(repeated, len(jobs))
	var untracedWall, tracedWall time.Duration
	tracedRounds, untracedRounds := 0, 0
	traced := &labRunner{workers: workers, tr: tr}
	before := map[string]int64{}
	tracedCounters := map[string]int64{}
	stop := deadline(cfg)
	for round := 0; round == 0 || time.Now().Before(stop); round++ {
		isTraced := tr != nil && round%2 == 1
		r := &labRunner{workers: workers, plant: opt.plant && round == 0}
		if isTraced {
			r = traced
			before = counterValues(labCounters)
		}
		replayBefore := r.replay
		start := time.Now()
		for i, j := range jobs {
			ans, d := r.run(int64(round*len(jobs)+i), j)
			if !isTraced {
				times.observe(i, d)
			}
			out.attempted++
			if err := judge(j, ans); err != nil {
				out.fail(j.name, err)
			}
		}
		wall := time.Since(start) - (r.replay - replayBefore)
		if isTraced {
			tracedWall += wall
			tracedRounds++
			after := counterValues(labCounters)
			for k, v := range after {
				tracedCounters[k] += v - before[k]
			}
		} else {
			untracedWall += wall
			untracedRounds++
		}
	}
	// The plain-enumeration ε is computed after the timed rounds, so it
	// costs neither set-up nor measured time.
	for _, j := range jobs {
		if j.kind == kindHalver && j.circ.Wires() <= oracleMaxWires {
			j.oracleEps = oracleEpsilon(j.circ)
			ans, _ := (&labRunner{workers: workers}).run(0, j)
			out.attempted++
			if err := judge(j, ans); err != nil {
				out.fail(j.name, err)
			}
		}
	}
	if tr != nil {
		out.layers = labLayers(tr, traced, tracedCounters, tracedWall, tracedRounds, untracedWall, untracedRounds)
		return out, nil
	}
	jobMS := times.costs(0.25)
	var kindMS [numKinds]float64
	total := 0.0
	for i, j := range jobs {
		kindMS[j.kind] += jobMS[i]
		total += jobMS[i]
	}
	out.endToEnd = map[string]float64{
		"setup_s":     setup,
		"peak_rss_mb": selfPeakRSSMB(),
		"ops_per_s":   float64(len(jobs)) / (total / 1e3),
		"p50_ms":      quantile(jobMS, 0.5),
		"p90_ms":      quantile(jobMS, 0.9),
	}
	out.named = map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {out.endToEnd["peak_rss_mb"], "MB"},
	}
	for k, v := range kindMS {
		out.named[kindNames[k]+"_s"] = metric{v / 1e3, "s"}
	}
	return out, nil
}

// judge compares an answer with the job's pin (set on first sight) and
// says what is wrong with it, if anything.
func judge(j *labJob, ans labAnswer) error {
	if ans.err != nil {
		return ans.err
	}
	if !j.pinned {
		j.pinned, j.pin = true, ans.pin
		return nil
	}
	if ans.pin != j.pin {
		return fmt.Errorf("answer %q differs from the pinned %q", ans.pin, j.pin)
	}
	return nil
}

func labLayers(tr *tracer, r *labRunner, counters map[string]int64, tracedWall time.Duration, tracedRounds int, untracedWall time.Duration, untracedRounds int) map[string]float64 {
	self := tr.selfTimes()
	perCall := func(name string) float64 {
		if n := tr.count(name); n > 0 {
			return self[name] / 1e3 / float64(n)
		}
		return 0
	}
	c := func(name string) float64 { return float64(counters[name]) }
	layers := map[string]float64{
		"network.compile.ms":            perCall("network.Compile"),
		"sortcheck.zeroone.ms":          perCall("sortcheck.ZeroOne"),
		"sortcheck.zeroone.masks":       c("sortcheck.zeroone.masks"),
		"sortcheck.zeroone.early_exits": c("sortcheck.zeroone.early_exits"),
		"halver.epsilon.ms":             perCall("halver.Epsilon"),
		"halver.epsilon.masks":          c("halver.epsilon.masks"),
		"delta.decompose.ms":            perCall("delta.DecomposeIterated"),
		"core.theorem41.ms":             perCall("core.Theorem41"),
		"core.lemma41.collisions":       c("core.lemma41.collisions"),
		"core.certificate.ms":           perCall("core.Certificate"),
		"core.verify.ms":                perCall("core.Verify"),
		"core.optimal.ms":               perCall("core.OptimalNoncolliding"),
		"core.optimal.nodes":            c("core.optimal.nodes"),
		"core.optimal.memo.evictions":   c("core.optimal.memo.evictions"),
		"core.optimal.dominance.cuts":   c("core.optimal.dominance.cuts"),
	}
	if r.kernelWords > 0 {
		layers["network.bitbatch.ns_per_word"] = float64(r.kernel.Nanoseconds()) / float64(r.kernelWords)
	}
	if r.zeroOneWall > 0 {
		// Only the check jobs' kernel time enters: the halver replays
		// run the Eval path, not ZeroOne's.
		layers["par.efficiency"] = checkKernel(tr) / float64(r.zeroOneWall.Microseconds())
	}
	if r.optimalNanos > 0 {
		layers["core.optimal.nodes_per_s"] = c("core.optimal.nodes") / r.optimalNanos.Seconds()
	}
	if probes := c("core.optimal.memo.hits") + c("core.optimal.memo.misses"); probes > 0 {
		layers["core.optimal.memo.hit_ratio"] = c("core.optimal.memo.hits") / probes
	}
	attributed := 0.0
	for _, name := range []string{
		"sortcheck.ZeroOne", "network.Compile", "network.BitBatch", "halver.Epsilon",
		"delta.DecomposeIterated", "core.Theorem41", "core.Certificate", "core.Verify",
		"core.OptimalNoncolliding",
	} {
		attributed += self[name]
	}
	reconcile(layers, attributed, float64(tracedWall.Microseconds()), tracedRounds, float64(untracedWall.Microseconds()), untracedRounds)
	return layers
}

// checkKernel sums (in µs) the BitBatch spans under the check jobs.
// Each covers its single-threaded kernel time over the worker count,
// so their sum over the ZeroOne wall is par.efficiency: single-thread
// kernel time ÷ (workers × ZeroOne wall).
func checkKernel(tr *tracer) float64 {
	total := 0.0
	for _, s := range tr.spans {
		if s.Name == "network.BitBatch" && tr.spans[s.Parent].Name == "sortcheck.ZeroOne" {
			total += s.End - s.Start
		}
	}
	return total
}
