package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads
// and metrics this program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, program %v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, program %v", i, spec.PerLayer[i], m)
		}
	}
}

// TestInputsDigestFollowsSeed: the same seed gives the same inputs,
// another seed other inputs.
func TestInputsDigestFollowsSeed(t *testing.T) {
	builders := map[string]func(seed int64) string{
		"sortlib": func(seed int64) string { _, d, _ := buildSortlib(seed); return d },
		"lab":     func(seed int64) string { _, d, _ := buildLab(seed); return d },
		"daemon":  func(seed int64) string { _, d, _ := buildDaemonSchedule(seed, 2); return d },
	}
	for name, build := range builders {
		a, b, c := build(7), build(7), build(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

func shortConfig(workload string) config {
	return config{workload: workload, seed: 3, seconds: 0.01}
}

func TestSortlibCountsPlantedWrongRow(t *testing.T) {
	out, err := sortlib(shortConfig("sortlib"), sortlibOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("clean run: %d of %d rows failed", out.failed, out.attempted)
	}
	out, err = sortlib(shortConfig("sortlib"), sortlibOptions{plant: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("planted run: %d rows failed, want 1", out.failed)
	}
}

// smallLabJobs keeps the cheap jobs of each kind, so the test runs in
// seconds.
func smallLabJobs(jobs []*labJob) []*labJob {
	return slices.DeleteFunc(jobs, func(j *labJob) bool {
		switch j.kind {
		case kindCheck:
			return j.circ.Wires() > 23
		case kindHalver:
			return j.circ.Wires() > 18
		case kindCertify:
			return j.circ.Wires() > 1024
		default:
			return j.circ.Wires() > 16
		}
	})
}

func TestLabCountsPlantedWrongVerdict(t *testing.T) {
	out, err := lab(shortConfig("lab"), labOptions{jobs: smallLabJobs})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("clean run: %d of %d jobs failed", out.failed, out.attempted)
	}
	out, err = lab(shortConfig("lab"), labOptions{jobs: smallLabJobs, plant: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("planted run: %d jobs failed, want 1", out.failed)
	}
}

// TestLabAnswersPinnedForSeed1 pins the ε values and optimum sizes of
// seed 1's job list, so that a change to an engine's answer shows even
// where no independent oracle is cheap enough to run in the benchmark.
func TestLabAnswersPinnedForSeed1(t *testing.T) {
	jobs, _, err := buildLab(1)
	if err != nil {
		t.Fatal(err)
	}
	r := &labRunner{workers: 2}
	var got []string
	for _, j := range jobs {
		if j.kind != kindHalver && j.kind != kindOptimum {
			continue
		}
		ans, _ := r.run(0, j)
		if ans.err != nil {
			t.Fatalf("%s: %v", j.name, ans.err)
		}
		got = append(got, j.name+" "+ans.pin)
	}
	if !slices.Equal(got, seed1Answers) {
		t.Errorf("seed 1 answers changed:\ngot  %q\nwant %q", got, seed1Answers)
	}
}

var seed1Answers = []string{
	"crossmatch-18 0.42857142857142855",
	"crossmatch-20 0.3333333333333333",
	"crossmatch-20 0.3333333333333333",
	"crossmatch-22 0.375",
	"crossmatch-22 0.375",
	"butterfly-16 6 M0 S0 M0 L0 M0 S0 S0 S0 M0 S0 M0 L0 M0 L0 L0 L0",
	"butterfly2-16 4 M0 S0 M0 L0 S0 S0 S0 S0 M0 S0 L0 L0 M0 L0 L0 L0",
	"random-16-d6 5 M0 M0 M0 S0 M0 M0 S0 S0 S0 S0 S0 L0 S0 S0 L0 L0",
	"random-16-d6 5 M0 M0 S0 M0 S0 M0 S0 L0 S0 L0 L0 L0 L0 M0 S0 S0",
	"random-18-d5 7 M0 M0 M0 M0 L0 M0 M0 L0 L0 M0 L0 L0 L0 S0 L0 S0 L0 L0",
}

func TestOracleEpsilonMatchesEngine(t *testing.T) {
	jobs, _, err := buildLab(2)
	if err != nil {
		t.Fatal(err)
	}
	r := &labRunner{workers: 2}
	for _, j := range jobs {
		if j.kind != kindHalver || j.circ.Wires() > oracleMaxWires {
			continue
		}
		j.oracleEps = oracleEpsilon(j.circ)
		if ans, _ := r.run(0, j); ans.err != nil {
			t.Errorf("%s: %v", j.name, ans.err)
		}
	}
}

func TestReplayCertificateRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	it := delta.NewIterated(n).AddBlock(nil, delta.Butterfly(bits.Lg(n))).AddBlock(perm.Random(n, rng), delta.Butterfly(bits.Lg(n)))
	circ, _ := it.ToNetwork()
	dec, ok := delta.DecomposeIterated(circ, bits.Lg(n))
	if !ok {
		t.Fatal("DecomposeIterated refused an iterated RDN")
	}
	cert, err := core.Theorem41(dec, 0).Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if err := replayCertificate(circ, cert); err != nil {
		t.Fatalf("genuine certificate: %v", err)
	}
	bad := *cert
	bad.PiPrime = slices.Clone(cert.Pi) // no swap at all
	if replayCertificate(circ, &bad) == nil {
		t.Error("a certificate whose inputs are equal was accepted")
	}
	bad = *cert
	bad.M = cert.M + 1
	if replayCertificate(circ, &bad) == nil {
		t.Error("a certificate naming the wrong values was accepted")
	}
}

// TestTracedRunsReconcile: in a traced run the layer self-times cover
// the end-to-end wall within the workload's tolerance, and the layers
// the workload loads all report.
func TestTracedRunsReconcile(t *testing.T) {
	runs := map[string]func(config) (*outcome, error){
		"sortlib": func(cfg config) (*outcome, error) { return sortlib(cfg, sortlibOptions{}) },
		"lab":     func(cfg config) (*outcome, error) { return lab(cfg, labOptions{jobs: smallLabJobs}) },
	}
	loads := map[string][]string{
		"sortlib": {"sortkernels.scalar.ns_per_row", "shufflenet.sort.dispatch_ns_per_row", "sortkernels.batch.kernel_ns_per_row", "sortlib.rows.kernel"},
		"lab":     {"network.compile.ms", "sortcheck.zeroone.ms", "halver.epsilon.ms", "delta.decompose.ms", "core.optimal.ms", "par.efficiency"},
	}
	for name, run := range runs {
		cfg := config{workload: name, seed: 5, seconds: 1, trace: true}
		out, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d wrong outputs", name, out.failed)
		}
		if u := out.layers["unattributed_frac"]; u > reconcileTolerance[name] {
			t.Errorf("%s: unattributed_frac %.3f over tolerance %.2f", name, u, reconcileTolerance[name])
		}
		if _, ok := out.layers["trace_overhead_frac"]; !ok {
			t.Errorf("%s: no trace_overhead_frac", name)
		}
		for _, m := range loads[name] {
			if !(out.layers[m] > 0) {
				t.Errorf("%s: layer metric %s = %v, want > 0", name, m, out.layers[m])
			}
		}
	}
}

func TestCompareRefusesSIMDMismatch(t *testing.T) {
	a := facts{Workload: "sortlib", Machine: machine{BatchSIMD: true}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical machines: %v", err)
	}
	b.Machine.BatchSIMD = false
	if comparable(a, b) == nil {
		t.Error("results with different batch SIMD flags were compared")
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	root := tr.add(1, -1, "outer", at(0), at(100))
	tr.add(1, root, "inner", at(10), at(40))
	tr.add(1, root, "inner", at(50), at(70))
	self := tr.selfTimes()
	if self["outer"] != 50 || self["inner"] != 50 {
		t.Errorf("self times %v, want outer 50 and inner 50", self)
	}
}

// TestDaemonCountsPlantedWrongBody runs the daemon workload briefly
// against a freshly built shufflenetd.
func TestDaemonCountsPlantedWrongBody(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns shufflenetd")
	}
	bin := filepath.Join(t.TempDir(), "shufflenetd")
	build := exec.Command("go", "build", "-o", bin, "shufflenet/cmd/shufflenetd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building shufflenetd: %v\n%s", err, out)
	}
	cfg := config{workload: "daemon", seed: 3, seconds: 1.5, daemon: bin}
	out, err := daemonRun(cfg, daemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("clean run: %d of %d requests failed", out.failed, out.attempted)
	}
	out, err = daemonRun(cfg, daemonOptions{plant: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("planted run: %d requests failed, want 1", out.failed)
	}
}
