// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed, checks every output against an
// independent answer, and prints the metrics as one JSON object on the
// last line of standard output:
//
//	perfbench --workload sortlib|lab|daemon --seed N --seconds S --trace 0|1
//	perfbench compare OLD.out NEW.out
//
// The workloads load different layers of the repository (see
// BENCHMARK.json and the doc comment of each workload file):
//
//	sortlib  Sort, SortFunc and SortBatchFlat over seeded rows
//	         (façade, sortkernels; no engine layer)
//	lab      offline research jobs: exhaustive 0-1 checks, exact halver
//	         ε, Theorem 4.1 certificates, cold-memo optimum searches
//	         (network, sortcheck, par, halver, delta, core)
//	daemon   open-loop HTTP against a spawned shufflenetd
//	         (serve plus the engine layers on small, warm inputs)
//
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// peak_rss_mb, ops_per_s, p50_ms, p90_ms). With --trace 1 the run
// alternates untraced and traced rounds and reports the per-layer
// metrics instead; spans are kept in memory and written to
// .bench_build/traces/ when the run ends. The line before the result
// carries the run's facts: the input digest, the machine, and the
// workload's own named metrics (scalar_rows_per_s, check_s, ...).
//
// The checkout's root is the working directory; the daemon binary is
// expected at .bench_build/bin/shufflenetd (perfbench/run.sh builds
// both from source).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"shufflenet/sortkernels"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: traces and the daemon binary live under root/.bench_build
	daemon   string // path of the shufflenetd binary
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// facts is the line printed before the result: what was measured, on
// what, and the workload's own named metrics.
type facts struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Trace        bool              `json:"trace"`
	InputsDigest string            `json:"inputs_digest"`
	FailRatio    float64           `json:"fail_ratio"`
	Machine      machine           `json:"machine"`
	Named        map[string]metric `json:"named,omitempty"`
	Notes        map[string]any    `json:"notes,omitempty"`
}

// outcome is what a workload hands back to run.
type outcome struct {
	attempted, failed int64
	digest            string
	endToEnd          map[string]float64 // keys of endToEndMetrics
	layers            map[string]float64 // keys of layerMetrics
	named             map[string]metric
	notes             map[string]any
	tr                *tracer
}

// maxLoggedFailures bounds the failures described on standard error.
const maxLoggedFailures = 5

// fail counts one wrong or refused output and describes the first few.
func (o *outcome) fail(what string, err error) {
	o.failed++
	if o.failed <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s: %v\n", what, err)
	}
}

// A workload runs for cfg.seconds and reports its outcome. It returns
// an error only when it cannot run at all (no result is printed then).
type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"sortlib": runSortlib,
	"lab":     runLab,
	"daemon":  runDaemon,
}

// endToEndMetrics are printed by every workload with --trace 0 and
// mirrored in BENCHMARK.json. Every workload reports all of them, each
// in its own terms:
//
//	           sortlib               lab                daemon (high rate)
//	ops_per_s  rows sorted per s     jobs per s         correct answers within 50 ms per s
//	p50_ms     per 1024-row slab     per job            per request, from its send time
//	p90_ms     per 1024-row slab     per job            per request, from its send time
//
// setup_s is the median of several set-ups (inputs, or spawning the
// daemon until /healthz answers); peak_rss_mb is the working process's
// peak resident set (the daemon's, for daemon). The workload-specific
// figures (scalar_rows_per_s, check_s, lat_p50_ms_low, ...) are on the
// facts line.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name: sortlib, lab or daemon")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	saturation := fs.Bool("saturation", false, "with --workload daemon: print the mix's closed-loop saturation rate instead of benchmarking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want sortlib, lab or daemon)\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: absRoot, daemon: filepath.Join(absRoot, ".bench_build", "bin", "shufflenetd"),
	}
	if *saturation {
		rps, err := measureSaturation(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "saturation_rps %.1f\n", rps)
		return 0
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if out.tr != nil {
		path := filepath.Join(cfg.root, ".bench_build", "traces",
			fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	if cfg.trace {
		// The layers must add up to the whole; a run whose spans leave
		// more unexplained than the workload's tolerance says so.
		tol := reconcileTolerance[cfg.workload]
		if out.notes == nil {
			out.notes = map[string]any{}
		}
		out.notes["reconcile_tolerance"] = tol
		out.notes["reconciled"] = out.layers["unattributed_frac"] <= tol
	}
	res, err := assemble(cfg, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	f := facts{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		InputsDigest: out.digest, Machine: machineFacts(),
		FailRatio: float64(res.Failed) / float64(res.Attempted),
		Named:     out.named, Notes: out.notes,
	}
	if err := printJSON(stdout, f); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

// assemble builds the result line, insisting that the workload
// produced every metric its mode promises.
func assemble(cfg config, out *outcome) (result, error) {
	res := result{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{},
	}
	if out.attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	if cfg.trace {
		for _, m := range layerMetrics {
			v, ok := out.layers[m.name]
			if !ok {
				v = 0 // the workload bypasses this layer
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range endToEndMetrics {
		v, ok := out.endToEnd[m.name]
		if !ok || !(v > 0) {
			return res, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// machine is recorded with every result. Two results whose
// BatchSIMD flags differ measured different batch kernels and are not
// compared (see runCompare).
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	BatchSIMD  bool   `json:"batch_simd_available"`
}

func machineFacts() machine {
	return machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		BatchSIMD: sortkernels.BatchSIMDAvailable(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// selfPeakRSSMB is this process's peak resident set so far.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deadline returns when a run that starts measuring now must stop.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// runCompare prints the relative change of every shared metric between
// two saved outputs, and refuses when their machines differ in a way
// that changes what a metric measures.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.out NEW.out")
		return 2
	}
	var fs [2]facts
	var rs [2]result
	for i, path := range args {
		var err error
		fs[i], rs[i], err = readOutput(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
	}
	if err := comparable(fs[0], fs[1]); err != nil {
		fmt.Fprintln(stderr, "perfbench compare: refusing:", err)
		return 1
	}
	for _, m := range endToEndMetrics {
		a, okA := rs[0].Metrics[m.name]
		b, okB := rs[1].Metrics[m.name]
		if okA && okB && a.Value != 0 {
			fmt.Fprintf(stdout, "%-14s %12.4g -> %12.4g %s (%+.1f%%)\n",
				m.name, a.Value, b.Value, m.unit, 100*(b.Value/a.Value-1))
		}
	}
	return 0
}

// comparable reports why two runs cannot be compared, if they cannot.
func comparable(a, b facts) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ (%s vs %s)", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return errors.New("one run is traced and the other is not")
	case a.Machine.BatchSIMD != b.Machine.BatchSIMD:
		return fmt.Errorf("batch SIMD availability differs (%v vs %v): the batch metrics measure different kernels",
			a.Machine.BatchSIMD, b.Machine.BatchSIMD)
	}
	return nil
}

// readOutput parses the facts and result lines of a saved run.
func readOutput(path string) (facts, result, error) {
	var f facts
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return f, r, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		return f, r, fmt.Errorf("%s: want a facts line and a result line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &f); err != nil {
		return f, r, fmt.Errorf("%s: facts line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return f, r, fmt.Errorf("%s: result line: %w", path, err)
	}
	return f, r, nil
}
