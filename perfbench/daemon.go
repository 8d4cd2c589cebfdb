package main

// The daemon workload: open-loop HTTP against a shufflenetd spawned on
// loopback. Send times follow a seeded Poisson schedule at two fixed
// rates, a third of the run at daemonLowRPS and the rest at
// daemonHighRPS: about ¼ and ½ of the mix's closed-loop saturation
// rate (1190-1250 req/s on a 2-core Xeon, measured with --saturation).
// At ⅔ of saturation the queue turned the machine's speed swings into
// p50 swings of 2-3× between runs. The mix covers all five request
// kinds: check, probe (/v1/check with input masks), halver, adversary
// and optimal. Networks are small (n ≤ 16; up to 20 for probes and
// n ≤ 10 for optimal) and drawn from seeded pools so that half of the
// requests of the cacheable kinds repeat a recently sent network: the
// response-cache path and the engine path both run. It loads the engine layers lab loads, but
// with small inputs, warm caches, the shared memo and coalesced
// probes, which lab never exercises.
//
// The generator is one process with at most nproc keep-alive
// connections. Latency runs from each request's scheduled send time,
// so a stall is charged to every request it delays. Every response is
// compared with an answer computed in this process after the run (and
// with answers known by construction where there are any); 429 and
// 504 count as failures.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
	"shufflenet/internal/sortcheck"
)

const (
	daemonLowRPS  = 300.0
	daemonHighRPS = 600.0
	// Every other request of a cacheable kind re-sends one of the last
	// repeatWindow networks of its kind; the rest send a fresh one.
	// The window keeps repeats within reach of the daemon's response
	// cache (256 bodies per family), so the hit path runs at a steady
	// share instead of fading as the run goes on.
	repeatShare  = 0.5
	repeatWindow = 64
	// goodputLimit is the latency within which a correct answer counts
	// toward goodput.
	goodputLimit = 50 * time.Millisecond
	// probeNetworks is the size of the probe pool: a few hot networks,
	// so that concurrent probes can share SWAR words.
	probeNetworks = 8
	probeMasks    = 8
	// maxClientInflight bounds the generator's outstanding requests; a
	// send beyond it is dropped and counted as failed.
	maxClientInflight = 512
)

var kindPaths = map[string]string{
	"check": "/v1/check", "probe": "/v1/check", "halver": "/v1/halver",
	"adversary": "/v1/adversary", "optimal": "/v1/optimal",
}

// kindWeights is the mix: requests of each kind per 13.
var kindWeights = []struct {
	kind   string
	weight int
}{{"check", 3}, {"probe", 4}, {"halver", 2}, {"adversary", 2}, {"optimal", 2}}

// poolEntry is one distinct network a request can carry.
type poolEntry struct {
	kind string
	circ *network.Network
	text string
	// wantSorts is the check verdict known by construction.
	wantSorts bool

	once sync.Once
	ans  *inProcess
}

// dreq is one scheduled request.
type dreq struct {
	entry  *poolEntry
	body   []byte
	inputs []uint64 // probe masks
	at     time.Duration
	block  int
	high   bool
	repeat bool
}

// reply is what came back for one request.
type reply struct {
	status   int
	body     []byte
	cache    string
	servedIn time.Duration
	// Since the schedule's start: when the request left the generator,
	// when it got one of the connections, and when its reply was read.
	sent, gotConn, done time.Duration
	err                 error
	traced              bool
}

// The schedule alternates blocks of about daemonBlockSecs: one at the
// low rate, then two at the high rate. Each latency figure is taken per
// block, and the run reports a low quantile over the blocks of one rate
// (see quietest).
const daemonBlockSecs = 0.5

func daemonBlocks(seconds float64) (int, time.Duration) {
	n := max(3, int(seconds/daemonBlockSecs+0.5))
	return n, time.Duration(seconds / float64(n) * float64(time.Second))
}

func highBlock(b int) bool { return b%3 != 0 }

// quietest is the lowest decile of per-block figures. On a shared
// 2-core machine, seconds-long stretches in which other tenants take
// the CPU double or quadruple a block's latency (measured: block p90
// from 4.4 to 22.7 ms within one run). A change to the program shifts
// every block, the quiet ones included, so the decile moves with it,
// while it ignores most of the run being disturbed. With 40 blocks in
// a 20 s run it still rests on four or more blocks of each rate.
func quietest(blocks []float64) float64 { return quantile(blocks, 0.1) }

// buildDaemonSchedule draws the pools and the send schedule.
func buildDaemonSchedule(seed int64, seconds float64) ([]dreq, string, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDigester()
	pools := map[string][]*poolEntry{}
	addEntry := func(kind string, c *network.Network, wantSorts bool) {
		var sb strings.Builder
		if err := c.WriteText(&sb); err != nil {
			panic(err) // an in-memory write of a valid network cannot fail
		}
		pools[kind] = append(pools[kind], &poolEntry{kind: kind, circ: c, text: sb.String(), wantSorts: wantSorts})
	}
	expected := seconds * (daemonLowRPS/3 + 2*daemonHighRPS/3)
	need := func(weight int) int { return int(expected*float64(weight)/13*(1-repeatShare)*1.5) + 16 }
	// Widths cycle through fixed lists, so every seed sends the same
	// mix of sizes; the seed draws the networks themselves.
	// Check networks are sorters (a full 2^n scan) and networks too
	// shallow to sort (an exit at the first unsorted block): both cost
	// the same for every seed, unlike a witness whose position the seed
	// would decide.
	for i := 0; i < need(3); i++ {
		n := 12 + i/2%5
		if i%2 == 0 {
			addEntry("check", standardLevel(n, rng).Append(netbuild.MergeExchange(n)), true)
		} else {
			addEntry("check", netbuild.RandomLevels(n, 3, rng), false)
		}
	}
	for i := 0; i < probeNetworks; i++ {
		addEntry("probe", netbuild.RandomLevels(16+i%5, 4+i%4, rng), false)
	}
	for i := 0; i < need(2); i++ {
		addEntry("halver", halver.CrossMatchings(12+2*(i%3), 3, rng), false)
	}
	for i := 0; i < need(2); i++ {
		it := delta.NewIterated(16).AddBlock(nil, delta.Butterfly(4))
		if i%2 == 1 {
			it.AddBlock(perm.Random(16, rng), delta.Random(4, 1.0, rng))
		}
		c, _ := it.ToNetwork()
		// A seeded relabeling keeps the circuit an iterated reverse
		// delta network and makes the repeated butterflies distinct.
		addEntry("adversary", relabel(c, perm.Random(16, rng)), false)
	}
	// Optimum requests alternate relabeled butterflies with dense
	// random circuits small enough that the search's heavy tail stays
	// within a few milliseconds.
	for i := 0; i < need(2); i++ {
		if i%2 == 0 {
			c, _ := delta.NewIterated(8).AddBlock(nil, delta.Butterfly(3)).ToNetwork()
			addEntry("optimal", relabel(c, perm.Random(8, rng)), false)
		} else {
			addEntry("optimal", randnet.Levels(10, 5, rng), false)
		}
	}

	var sched []dreq
	var deck []string
	sent := map[string][]*poolEntry{}
	next := map[string]int{}
	turn := map[string]int{}
	blocks, blockDur := daemonBlocks(seconds)
	end := time.Duration(blocks) * blockDur
	for t := time.Duration(0); ; {
		block := int(t / blockDur)
		rate := daemonLowRPS
		if highBlock(block) {
			rate = daemonHighRPS
		}
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= end {
			break
		}
		block = int(t / blockDur)
		// Kinds come in seeded shuffles of one full mix, so every
		// stretch of the schedule carries the mix's exact proportions.
		if len(deck) == 0 {
			for _, kw := range kindWeights {
				for w := 0; w < kw.weight; w++ {
					deck = append(deck, kw.kind)
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		kind := deck[0]
		deck = deck[1:]
		rq := dreq{at: t, block: block, high: highBlock(block)}
		pool := pools[kind]
		if kind == "probe" {
			rq.entry = pool[rng.Intn(len(pool))]
			n := rq.entry.circ.Wires()
			for i := 0; i < probeMasks; i++ {
				rq.inputs = append(rq.inputs, uint64(rng.Int63n(1<<n)))
			}
		} else if len(sent[kind]) > 0 && (turn[kind]%2 == 1 || next[kind] == len(pool)) {
			recent := sent[kind][max(0, len(sent[kind])-repeatWindow):]
			rq.entry = recent[rng.Intn(len(recent))]
			rq.repeat = true
		} else {
			rq.entry = pool[next[kind]]
			next[kind]++
			sent[kind] = append(sent[kind], rq.entry)
		}
		body, err := json.Marshal(struct {
			Network string   `json:"network"`
			Inputs  []uint64 `json:"inputs,omitempty"`
		}{rq.entry.text, rq.inputs})
		if err != nil {
			return nil, "", err
		}
		rq.body = body
		turn[kind]++
		sched = append(sched, rq)
		d.ints(int64(rq.at))
		d.str(kindPaths[kind])
		d.str(string(body))
	}
	return sched, d.sum(), nil
}

// controlClient carries /healthz and /debug/vars, outside the measured
// traffic.
var controlClient = &http.Client{Timeout: 5 * time.Second}

// daemonProc is a running shufflenetd.
type daemonProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

// startDaemon spawns the daemon on a free loopback port and waits
// until /healthz answers.
func startDaemon(bin string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &daemonProc{cmd: cmd, drained: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
	}()
	select {
	case line, ok := <-lines:
		const prefix = "shufflenetd: listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			p.stop()
			return nil, fmt.Errorf("shufflenetd did not report its address (got %q)", line)
		}
		p.addr = "http://" + strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("shufflenetd did not start within 30 s")
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := controlClient.Get(p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, errors.New("shufflenetd /healthz did not answer within 30 s")
		}
	}
}

// stop ends the daemon and returns its peak RSS in MB.
func (p *daemonProc) stop() float64 {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	p.cmd.Wait() // the exit status of a signaled daemon carries no information
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// debugVars reads the daemon's obs registry from /debug/vars.
func (p *daemonProc) debugVars() (map[string]float64, error) {
	resp, err := controlClient.Get(p.addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Shufflenet map[string]json.RawMessage `json:"shufflenet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	out := map[string]float64{}
	for k, raw := range vars.Shufflenet {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
		}
	}
	return out, nil
}

// send issues the schedule against the daemon, open loop: each request
// leaves at its scheduled time whatever is still outstanding. With
// closed set, requests instead leave as soon as one of the conns
// connections is free (the saturation measurement).
func send(addr string, sched []dreq, conns int, closed bool, traceEvery int) []reply {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	replies := make([]reply, len(sched))
	slots := maxClientInflight
	if closed {
		slots = conns
	}
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		if !closed {
			if d := time.Until(start.Add(sched[i].at)); d > 0 {
				time.Sleep(d)
			}
			select {
			case sem <- struct{}{}:
			default:
				replies[i] = reply{err: errors.New("generator saturated: request dropped"), sent: time.Since(start), done: time.Since(start)}
				continue
			}
		} else {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rp := reply{sent: time.Since(start), traced: traceEvery > 0 && i%traceEvery == 0}
			var gotConn atomic.Int64 // the transport may call GotConn from its own goroutine
			gotConn.Store(int64(rp.sent))
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(httptrace.GotConnInfo) { gotConn.Store(int64(time.Since(start))) },
			})
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+kindPaths[sched[i].entry.kind], bytes.NewReader(sched[i].body))
			if err != nil {
				panic(err) // the URL and method are built here and valid
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err == nil {
				rp.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				rp.status = resp.StatusCode
				rp.cache = resp.Header.Get("X-Cache")
				rp.servedIn, _ = time.ParseDuration(resp.Header.Get("X-Served-In"))
			}
			rp.err = err
			rp.done = time.Since(start)
			rp.gotConn = time.Duration(gotConn.Load())
			replies[i] = rp
		}(i)
	}
	wg.Wait()
	return replies
}

// inProcess is one pool entry's answer computed in this process, with
// the time each layer took to produce it (cold: fresh memo, no cache).
type inProcess struct {
	layers []layerTime
	// The answer, in the response's terms.
	sorts       bool
	witness     []int
	eps         float64
	optimalSize int
	pattern     pattern.Pattern
	set         []int
	err         error // the in-process pipeline itself failed
}

type layerTime struct {
	name string
	d    time.Duration
}

// computeInProcess answers e as the daemon's handler would, timing
// each layer call. workers matches the daemon's engine parallelism.
func computeInProcess(e *poolEntry, workers int) *inProcess {
	ip := &inProcess{}
	timed := func(name string, f func()) {
		start := time.Now()
		f()
		ip.layers = append(ip.layers, layerTime{name, time.Since(start)})
	}
	var c *network.Network
	var perr error
	timed("network.ReadText", func() { c, perr = network.ReadText(strings.NewReader(e.text)) })
	if perr != nil {
		ip.err = perr
		return ip
	}
	var body any
	switch e.kind {
	case "check":
		timed("sortcheck.ZeroOne", func() { ip.sorts, ip.witness = sortcheck.ZeroOne(c.Wires(), c, workers) })
		body = map[string]any{"n": c.Wires(), "sorts": ip.sorts, "witness": ip.witness}
	case "probe":
		timed("network.Compile", func() { network.Compile(c) })
		return ip // the verdicts are per request; see judgeDaemon
	case "halver":
		timed("halver.Epsilon", func() { ip.eps = halver.Epsilon(c, workers) })
		body = map[string]any{"n": c.Wires(), "epsilon": ip.eps}
	case "adversary":
		var it *delta.Iterated
		var ok bool
		var an *core.Analysis
		var cert *core.Certificate
		timed("delta.DecomposeIterated", func() { it, ok = delta.DecomposeIterated(c, 4) })
		if !ok {
			ip.err = errors.New("DecomposeIterated refused an iterated RDN")
			return ip
		}
		timed("core.Theorem41", func() { an = core.Theorem41(it, 0) })
		timed("core.Certificate", func() { cert, ip.err = an.Certificate() })
		if ip.err != nil {
			return ip
		}
		timed("core.Verify", func() { ip.err = cert.Verify(c) })
		var cb bytes.Buffer
		timed("serve.encode", func() {
			cert.WriteJSON(&cb)
			json.Marshal(map[string]any{"n": c.Wires(), "reports": an.Reports, "certificate": json.RawMessage(bytes.TrimSpace(cb.Bytes()))})
		})
		return ip
	case "optimal":
		timed("core.OptimalNoncolliding", func() {
			ip.optimalSize, ip.pattern, ip.set, ip.err = core.OptimalNoncollidingOpt(context.Background(), c, core.OptimalOptions{Workers: workers})
		})
		body = map[string]any{"n": c.Wires(), "optimal_d": ip.optimalSize, "set": ip.set}
	}
	timed("serve.encode", func() { json.Marshal(body) })
	return ip
}

func (e *poolEntry) answer(workers int) *inProcess {
	e.once.Do(func() { e.ans = computeInProcess(e, workers) })
	return e.ans
}

// judgeDaemon checks one reply against the in-process answer and the
// answers known by construction.
func judgeDaemon(rq dreq, rp reply, workers int) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	e := rq.entry
	ip := e.answer(workers)
	if ip.err != nil {
		return fmt.Errorf("in-process answer failed: %v", ip.err)
	}
	n := e.circ.Wires()
	switch e.kind {
	case "check":
		var r struct {
			N       int   `json:"n"`
			Sorts   *bool `json:"sorts"`
			Witness []int `json:"witness"`
		}
		if err := json.Unmarshal(rp.body, &r); err != nil || r.Sorts == nil {
			return fmt.Errorf("undecodable check body %q", rp.body)
		}
		switch {
		case r.N != n || *r.Sorts != ip.sorts || !slices.Equal(r.Witness, ip.witness):
			return fmt.Errorf("check answer (%v, %v) differs from in-process (%v, %v)", *r.Sorts, r.Witness, ip.sorts, ip.witness)
		case *r.Sorts != e.wantSorts:
			return fmt.Errorf("check verdict %v, want %v by construction", *r.Sorts, e.wantSorts)
		case !*r.Sorts && sortcheck.IsSorted(network.Compile(e.circ).Eval(r.Witness)):
			return fmt.Errorf("witness %v is sorted by the network", r.Witness)
		}
	case "probe":
		var r struct {
			Probes []struct {
				Mask   uint64 `json:"mask"`
				Sorted bool   `json:"sorted"`
			} `json:"probes"`
		}
		if err := json.Unmarshal(rp.body, &r); err != nil || len(r.Probes) != len(rq.inputs) {
			return fmt.Errorf("undecodable probe body %q", rp.body)
		}
		prog := network.Compile(e.circ)
		for i, p := range r.Probes {
			want := sortcheck.IsSorted(prog.Eval(sortcheck.ZeroOneInput(rq.inputs[i], n)))
			if p.Mask != rq.inputs[i] || p.Sorted != want {
				return fmt.Errorf("probe %d: mask %d sorted=%v, want mask %d sorted=%v", i, p.Mask, p.Sorted, rq.inputs[i], want)
			}
		}
	case "halver":
		var r struct {
			Epsilon *float64 `json:"epsilon"`
		}
		if err := json.Unmarshal(rp.body, &r); err != nil || r.Epsilon == nil {
			return fmt.Errorf("undecodable halver body %q", rp.body)
		}
		if *r.Epsilon != ip.eps {
			return fmt.Errorf("ε %v, in-process %v", *r.Epsilon, ip.eps)
		}
	case "adversary":
		var r struct {
			N               int             `json:"n"`
			SortingRuledOut bool            `json:"sorting_ruled_out"`
			Certificate     json.RawMessage `json:"certificate"`
		}
		if err := json.Unmarshal(rp.body, &r); err != nil {
			return fmt.Errorf("undecodable adversary body %q", rp.body)
		}
		if r.N != n || !r.SortingRuledOut || len(r.Certificate) == 0 {
			return fmt.Errorf("no certificate for a network the in-process run certifies")
		}
		cert, err := core.ReadCertificateJSON(bytes.NewReader(r.Certificate))
		if err != nil {
			return err
		}
		// The certificate is checked by replay, not compared: the
		// decomposition behind it may differ between calls.
		return replayCertificate(e.circ, cert)
	case "optimal":
		var r struct {
			OptimalD int    `json:"optimal_d"`
			Pattern  string `json:"pattern"`
			Set      []int  `json:"set"`
		}
		if err := json.Unmarshal(rp.body, &r); err != nil {
			return fmt.Errorf("undecodable optimal body %q", rp.body)
		}
		if r.OptimalD != ip.optimalSize || r.Pattern != ip.pattern.String() || !slices.Equal(r.Set, ip.set) {
			return fmt.Errorf("optimum (%d, %s) differs from in-process (%d, %s)", r.OptimalD, r.Pattern, ip.optimalSize, ip.pattern)
		}
		if !pattern.Noncolliding(e.circ, ip.pattern, pattern.M(0)) {
			return fmt.Errorf("optimum witness %s is not noncolliding", ip.pattern)
		}
	}
	return nil
}

// daemonOptions lets tests plant a wrong answer.
type daemonOptions struct {
	plant bool // corrupt the first reply's body
}

func runDaemon(cfg config) (*outcome, error) { return daemonRun(cfg, daemonOptions{}) }

// measureSaturation sends the mix closed loop over nproc connections
// for cfg.seconds and returns the completed requests per second: the
// rate daemonLowRPS and daemonHighRPS are set against.
func measureSaturation(cfg config) (float64, error) {
	sched, _, err := buildDaemonSchedule(cfg.seed, cfg.seconds*3)
	if err != nil {
		return 0, err
	}
	p, err := startDaemon(cfg.daemon)
	if err != nil {
		return 0, err
	}
	defer p.stop()
	// Only the high-phase part of the schedule: its networks and
	// repeats are what the high rate sends.
	for len(sched) > 0 && !sched[0].high {
		sched = sched[1:]
	}
	stop := deadline(cfg)
	done := 0
	start := time.Now()
	for len(sched) > 0 && time.Now().Before(stop) {
		k := min(len(sched), 64)
		done += len(send(p.addr, sched[:k], runtime.NumCPU(), true, 0))
		sched = sched[k:]
	}
	return float64(done) / time.Since(start).Seconds(), nil
}

func daemonRun(cfg config, opt daemonOptions) (*outcome, error) {
	sched, digest, err := buildDaemonSchedule(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	var setups []float64
	var p *daemonProc
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		p, err = startDaemon(cfg.daemon)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			p.stop()
		}
	}
	setup := median(setups)
	conns := runtime.NumCPU()
	traceEvery := 0
	if cfg.trace {
		traceEvery = 2 // every other request is traced; the rest measure the overhead
	}
	replies := send(p.addr, sched, conns, false, traceEvery)
	vars, verr := p.debugVars()
	rss := p.stop()
	if verr != nil {
		return nil, verr
	}
	if opt.plant {
		replies[0].body = []byte(`{"n":0}`)
		replies[0].status = http.StatusOK
		replies[0].err = nil
	}

	out := &outcome{digest: digest}
	workers := runtime.NumCPU()
	blocks, blockDur := daemonBlocks(cfg.seconds)
	lat := make([][]float64, blocks)
	good := make([]int, blocks)
	perKind := map[string][]float64{}
	repeats, cacheable := 0, 0
	for i, rq := range sched {
		rp := replies[i]
		l := ms(rp.done - rq.at)
		lat[rq.block] = append(lat[rq.block], l)
		out.attempted++
		err := judgeDaemon(rq, rp, workers)
		if err != nil {
			out.fail(fmt.Sprintf("%s request %d", rq.entry.kind, i), err)
		}
		if rq.entry.kind != "probe" {
			cacheable++
			if rq.repeat {
				repeats++
			}
		}
		if rq.high {
			perKind[rq.entry.kind] = append(perKind[rq.entry.kind], l)
		}
		if err == nil && rp.done-rq.at <= goodputLimit {
			good[rq.block]++
		}
	}
	if cfg.trace {
		out.tr = newTracer()
		out.layers = daemonLayers(out.tr, sched, replies, vars, perKind, workers)
		return out, nil
	}
	// Per-block figures, then a low quantile over the blocks of each
	// rate for latency and the median for goodput.
	var p50 [2][]float64
	var p90 [2][]float64
	var goodput []float64
	var requests [2]int
	for b := range lat {
		h := 0
		if highBlock(b) {
			h = 1
			goodput = append(goodput, float64(good[b])/blockDur.Seconds())
		}
		p50[h] = append(p50[h], quantile(lat[b], 0.5))
		p90[h] = append(p90[h], quantile(lat[b], 0.9))
		requests[h] += len(lat[b])
	}
	out.endToEnd = map[string]float64{
		"setup_s":     setup,
		"peak_rss_mb": rss,
		"ops_per_s":   median(goodput),
		"p50_ms":      quietest(p50[1]),
		"p90_ms":      quietest(p90[1]),
	}
	out.named = map[string]metric{
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {rss, "MB"},
		"lat_p50_ms_low":   {quietest(p50[0]), "ms"},
		"lat_p90_ms_low":   {quietest(p90[0]), "ms"},
		"lat_p50_ms_high":  {quietest(p50[1]), "ms"},
		"lat_p90_ms_high":  {quietest(p90[1]), "ms"},
		"goodput_rps_high": {median(goodput), "1/s"},
	}
	out.notes = map[string]any{
		"rate_low_rps": daemonLowRPS, "rate_high_rps": daemonHighRPS,
		"requests_low": requests[0], "requests_high": requests[1],
		"blocks": blocks, "block_s": blockDur.Seconds(),
		"repeat_share": float64(repeats) / float64(cacheable), // of the requests other than probes
	}
	return out, nil
}

// daemonLayers builds the traced requests' spans and the per-layer
// metrics. A traced low-rate request's span runs from its scheduled
// time to its reply; its children are the generator's lag, the wait
// for a connection (the request ahead still being served), the
// transport (the rest of the round trip outside the handler time the
// daemon reports in X-Served-In), and the handler, whose children are
// the in-process layer times for the path the request took (parse only
// on a cache hit). What the handler has left is admission, decoding
// and cache lookup; with the wait and the transport it makes
// serve.overhead_ms.
func daemonLayers(tr *tracer, sched []dreq, replies []reply, vars map[string]float64, perKind map[string][]float64, workers int) map[string]float64 {
	layers := map[string]float64{}
	layerTotal := map[string]time.Duration{}
	layerCalls := map[string]int{}
	var overhead, lag []float64
	var tracedLow, untracedLow []float64
	t0 := tr.t0
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	var rootSum, attributed float64
	for i, rq := range sched {
		rp := replies[i]
		if rp.err != nil || rp.status != http.StatusOK {
			continue
		}
		lag = append(lag, ms(rp.sent-rq.at))
		if rq.high {
			continue
		}
		if !rp.traced {
			untracedLow = append(untracedLow, ms(rp.done-rp.sent))
			continue
		}
		tracedLow = append(tracedLow, ms(rp.done-rp.sent))
		id := int64(i)
		root := tr.add(id, -1, "daemon.request", at(rq.at), at(rp.done))
		tr.add(id, root, "loadgen.lag", at(rq.at), at(rp.sent))
		// Waiting for a connection is waiting for the daemon to finish
		// the request ahead on it: the serve layer's queue.
		tr.add(id, root, "serve.queue", at(rp.sent), at(rp.gotConn))
		handlerStart := rp.done - rp.servedIn
		tr.add(id, root, "serve.transport", at(rp.gotConn), at(handlerStart))
		h := tr.add(id, root, "serve.handler", at(handlerStart), at(rp.done))
		var covered time.Duration
		for _, lt := range rq.entry.answer(workers).layers {
			if rp.cache == "hit" && lt.name != "network.ReadText" {
				continue
			}
			tr.add(id, h, lt.name, at(handlerStart+covered), at(handlerStart+covered+lt.d))
			covered += lt.d
			layerTotal[lt.name] += lt.d
			layerCalls[lt.name]++
		}
		overhead = append(overhead, ms(rp.done-rp.sent-covered))
		rootSum += float64((rp.done - rq.at).Microseconds())
	}
	// The transport (loopback, HTTP framing, the client) runs outside
	// every layer's clock, so it stays unattributed.
	for name, us := range tr.selfTimes() {
		if name != "daemon.request" && name != "serve.transport" {
			attributed += us
		}
	}
	mean := func(name string, unit time.Duration) float64 {
		if layerCalls[name] == 0 {
			return 0
		}
		return float64(layerTotal[name]) / float64(unit) / float64(layerCalls[name])
	}
	layers["network.parse.us"] = mean("network.ReadText", time.Microsecond)
	layers["serve.encode.us"] = mean("serve.encode", time.Microsecond)
	for name, metricName := range map[string]string{
		"delta.DecomposeIterated": "delta.decompose.ms", "core.Theorem41": "core.theorem41.ms",
		"core.Certificate": "core.certificate.ms", "core.Verify": "core.verify.ms",
		"sortcheck.ZeroOne": "sortcheck.zeroone.ms", "halver.Epsilon": "halver.epsilon.ms",
		"core.OptimalNoncolliding": "core.optimal.ms",
	} {
		layers[metricName] = mean(name, time.Millisecond)
	}
	layers["serve.overhead_ms"] = median(overhead)
	layers["loadgen.lag_p90_ms"] = quantile(lag, 0.9)
	ratio := func(a, b string) float64 {
		if vars[a]+vars[b] == 0 {
			return 0
		}
		return vars[a] / (vars[a] + vars[b])
	}
	layers["serve.cache.hit_ratio"] = ratio("serve.cache.hits", "serve.cache.misses")
	layers["core.optimal.memo.hit_ratio"] = ratio("core.optimal.memo.hits", "core.optimal.memo.misses")
	if vars["serve.check.probe.words"] > 0 {
		layers["serve.check.probe.lanes_per_word"] = vars["serve.check.probe.lanes"] / vars["serve.check.probe.words"]
	}
	layers["serve.throttled"] = vars["serve.throttled"]
	layers["serve.deadline_exceeded"] = vars["serve.deadline_exceeded"]
	for _, kw := range kindWeights {
		layers["daemon."+kw.kind+".p90_ms"] = quantile(perKind[kw.kind], 0.9)
	}
	if rootSum > 0 {
		layers["unattributed_frac"] = 1 - attributed/rootSum
	}
	if len(untracedLow) > 0 && len(tracedLow) > 0 {
		layers["trace_overhead_frac"] = median(tracedLow)/median(untracedLow) - 1
	}
	return layers
}
