package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/perm"
	"shufflenet/internal/sortcheck"
)

// checkDecompose validates the Decompose contract on a circuit built
// from a known RDN: behavioral equivalence through the rail assignment.
func checkDecompose(t *testing.T, orig *Network, rng *rand.Rand) {
	t.Helper()
	c := orig.ToNetwork()
	d, railOf, ok := Decompose(c)
	if !ok {
		t.Fatal("Decompose rejected an RDN circuit")
	}
	if d.Levels() != orig.Levels() || d.Size() != orig.Size() {
		t.Fatalf("structure shape wrong: levels %d/%d size %d/%d",
			d.Levels(), orig.Levels(), d.Size(), orig.Size())
	}
	checkRecovered(t, c, d, railOf, rng)
}

// checkRecovered checks that a recovered structure d with rail
// assignment railOf behaves like the circuit c on random inputs.
func checkRecovered(t *testing.T, c *network.Network, d *Network, railOf []int, rng *rand.Rand) {
	t.Helper()
	if d.Size() != c.Size() {
		t.Fatalf("recovered %d comparators, circuit has %d", d.Size(), c.Size())
	}
	// railOf must be a permutation of the rails.
	if !perm.Perm(railOf).Valid() {
		t.Fatalf("railOf is not a permutation: %v", railOf)
	}
	n := c.Wires()
	for trial := 0; trial < 20; trial++ {
		x := []int(perm.Random(n, rng))
		slotIn := make([]int, n)
		for s, r := range railOf {
			slotIn[s] = x[r]
		}
		got := d.Eval(slotIn)
		want := c.Eval(x)
		for s := 0; s < n; s++ {
			if got[s] != want[railOf[s]] {
				t.Fatalf("behavioural mismatch at slot %d", s)
			}
		}
	}
}

func TestDecomposeButterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for l := 1; l <= 5; l++ {
		checkDecompose(t, Butterfly(l), rng)
	}
}

func TestDecomposeRandomRDNs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		l := 1 + rng.Intn(5)
		checkDecompose(t, Random(l, 0.2+0.8*rng.Float64(), rng), rng)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	checkDecompose(t, Empty(4), rng)
}

func TestDecomposeRejectsNonRDN(t *testing.T) {
	c := Butterfly(3).ToNetwork()
	// Repeat a level: no longer an RDN.
	c2 := c.Truncate(2)
	c2.AddLevel(c.Level(1))
	if _, _, ok := Decompose(c2); ok {
		t.Error("Decompose accepted a repeated-level circuit")
	}
	// Three components joined in a triangle by the last level: the
	// components cannot be 2-coloured.
	tri := network.New(8).AddComparators(0, 1, 2, 3, 4, 5, 6, 7).AddLevel(nil).AddComparators(0, 2, 3, 4, 5, 1)
	if _, _, ok := Decompose(tri); ok {
		t.Error("Decompose accepted an odd cycle across the last level")
	}
	if _, _, ok := oracleDecomposeCircuit(tri); ok {
		t.Error("the oracle accepted an odd cycle across the last level")
	}
}

func TestDecomposeIteratedBitonic(t *testing.T) {
	// Flatten BitonicIterated to a circuit, decompose it back, and
	// confirm the recovered iterated RDN still sorts — full round trip
	// through rail space.
	for _, dd := range []int{2, 3, 4} {
		n := 1 << uint(dd)
		circ, place := BitonicIterated(dd).ToNetwork()
		it, ok := DecomposeIterated(circ, dd)
		if !ok {
			t.Fatalf("d=%d: DecomposeIterated failed on bitonic", dd)
		}
		if it.Blocks() != dd+1 {
			t.Fatalf("d=%d: recovered %d blocks", dd, it.Blocks())
		}
		// Behavioral check through the recovered structure.
		c2, place2 := it.ToNetwork()
		rng := rand.New(rand.NewSource(74))
		for trial := 0; trial < 20; trial++ {
			x := []int(perm.Random(n, rng))
			a := circ.Eval(x)
			b := c2.Eval(x)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("d=%d: recovered circuit differs", dd)
				}
			}
		}
		_ = place2
		// And it sorts: c2 is rail-equivalent to circ, so the original
		// flatten's placement locates the sorted output.
		ok01, w := sortcheck.ZeroOne(n, remapEval2{c2, place}, 0)
		if !ok01 {
			t.Fatalf("d=%d: recovered bitonic does not sort (%v)", dd, w)
		}
	}
}

type remapEval2 struct {
	c     interface{ Eval([]int) []int }
	place perm.Perm
}

func (e remapEval2) Eval(in []int) []int {
	out := e.c.Eval(in)
	fixed := make([]int, len(out))
	for s, r := range e.place {
		fixed[s] = out[r]
	}
	return fixed
}

func TestDecomposeIteratedRejects(t *testing.T) {
	c := Butterfly(3).ToNetwork()
	if _, ok := DecomposeIterated(c, 2); ok {
		t.Error("accepted depth not divisible by l")
	}
	if _, ok := DecomposeIterated(c, 0); ok {
		t.Error("accepted l = 0")
	}
}

// oracleDecompose is the map-based decomposer the package used before
// the rail-local one in decompose.go, kept as the differential oracle.
// Every call scans every comparator of every level of the whole
// circuit, and group order follows Go map iteration, so its result
// (though not its accept/reject verdict) can differ between calls.
func oracleDecompose(c *network.Network, rails []int, l int) (*Network, []int, bool) {
	if l == 0 {
		if len(rails) != 1 {
			return nil, nil, false
		}
		return Leaf(), []int{rails[0]}, true
	}
	if len(rails) != 1<<uint(l) {
		return nil, nil, false
	}
	inSet := make(map[int]bool, len(rails))
	for _, r := range rails {
		inSet[r] = true
	}

	parent := make(map[int]int, len(rails))
	var find func(x int) int
	find = func(x int) int {
		p, okP := parent[x]
		if !okP || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for li := 0; li < l-1; li++ {
		for _, cm := range c.Level(li) {
			a, b := cm.Min, cm.Max
			if inSet[a] != inSet[b] {
				return nil, nil, false
			}
			if inSet[a] {
				union(a, b)
			}
		}
	}

	type edge struct{ a, b int }
	var cross []edge
	for _, cm := range c.Level(l - 1) {
		a, b := cm.Min, cm.Max
		if inSet[a] != inSet[b] {
			return nil, nil, false
		}
		if !inSet[a] {
			continue
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			return nil, nil, false
		}
		cross = append(cross, edge{ra, rb})
	}

	members := map[int][]int{}
	for _, r := range rails {
		members[find(r)] = append(members[find(r)], r)
	}

	color := map[int]int{}
	adj := map[int][]int{}
	for _, e := range cross {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	type group struct{ size0, size1 int }
	var groups []group
	var groupRoots [][]int
	visited := map[int]bool{}
	for root := range members {
		if visited[root] {
			continue
		}
		g := group{}
		var roots []int
		queue := []int{root}
		visited[root] = true
		color[root] = 0
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			roots = append(roots, x)
			if color[x] == 0 {
				g.size0 += len(members[x])
			} else {
				g.size1 += len(members[x])
			}
			for _, y := range adj[x] {
				if !visited[y] {
					visited[y] = true
					color[y] = 1 - color[x]
					queue = append(queue, y)
				} else if color[y] == color[x] {
					return nil, nil, false
				}
			}
		}
		groups = append(groups, g)
		groupRoots = append(groupRoots, roots)
	}

	half := len(rails) / 2
	flips := make([]bool, len(groups))
	var result *Network
	var resultRails []int
	var try func(i, side0 int) bool
	try = func(i, side0 int) bool {
		if side0 > half {
			return false
		}
		rest := 0
		for j := i; j < len(groups); j++ {
			m := groups[j].size0
			if groups[j].size1 > m {
				m = groups[j].size1
			}
			rest += m
		}
		if side0+rest < half {
			return false
		}
		if i == len(groups) {
			if side0 != half {
				return false
			}
			var side [2][]int
			for gi, roots := range groupRoots {
				for _, root := range roots {
					s := color[root]
					if flips[gi] {
						s = 1 - s
					}
					side[s] = append(side[s], members[root]...)
				}
			}
			sub0, rails0, ok0 := oracleDecompose(c, side[0], l-1)
			if !ok0 {
				return false
			}
			sub1, rails1, ok1 := oracleDecompose(c, side[1], l-1)
			if !ok1 {
				return false
			}
			// Output-slot index of each rail within each sub-network.
			slotOf := map[int]int{}
			for s, r := range rails0 {
				slotOf[r] = s
			}
			for s, r := range rails1 {
				slotOf[r] = s
			}
			in1 := map[int]bool{}
			for _, r := range rails1 {
				in1[r] = true
			}
			var final []Comp
			for _, cm := range c.Level(l - 1) {
				if !inSet[cm.Min] {
					continue
				}
				// One endpoint per side (guaranteed above).
				r0, r1 := cm.Min, cm.Max
				minFirst := true
				if in1[r0] {
					r0, r1 = r1, r0
					minFirst = false
				}
				final = append(final, Comp{O0: slotOf[r0], O1: slotOf[r1], MinFirst: minFirst})
			}
			result = Combine(sub0, sub1, final)
			resultRails = append(append([]int{}, rails0...), rails1...)
			return true
		}
		flips[i] = false
		if try(i+1, side0+groups[i].size0) {
			return true
		}
		flips[i] = true
		return try(i+1, side0+groups[i].size1)
	}
	if !try(0, 0) {
		return nil, nil, false
	}
	return result, resultRails, true
}

// oracleDecomposeCircuit applies oracleDecompose to a whole circuit,
// with Decompose's width and depth checks.
func oracleDecomposeCircuit(c *network.Network) (*Network, []int, bool) {
	n := c.Wires()
	if !bits.IsPow2(n) || c.Depth() != bits.Lg(n) {
		return nil, nil, false
	}
	return oracleDecompose(c, perm.Identity(n), bits.Lg(n))
}

// compareWithOracle decomposes c with Decompose and with the oracle,
// requires the same verdict, and on acceptance checks both recovered
// structures against c. It reports the verdict.
func compareWithOracle(t *testing.T, name string, c *network.Network, rng *rand.Rand) bool {
	t.Helper()
	d, railOf, ok := Decompose(c)
	od, oRailOf, oOK := oracleDecomposeCircuit(c)
	if ok != oOK {
		t.Fatalf("%s: Decompose says %v, the oracle says %v", name, ok, oOK)
	}
	if ok {
		checkRecovered(t, c, d, railOf, rng)
		checkRecovered(t, c, od, oRailOf, rng)
	}
	return ok
}

// rebuild returns a copy of c with level li replaced by lv.
func rebuild(c *network.Network, li int, lv network.Level) *network.Network {
	out := network.New(c.Wires())
	for i, old := range c.Levels() {
		if i == li {
			old = lv
		}
		out.AddLevel(old)
	}
	return out
}

// moveAcrossTopSplit perturbs the flattened RDN c (whose top split is
// rails below n/2 against the rest) at a level below the last: one
// comparator gets a new endpoint on the other side of the split — an
// idle rail if there is one, else the partner of a comparator there.
func moveAcrossTopSplit(c *network.Network, rng *rand.Rand) (*network.Network, bool) {
	n, l := c.Wires(), c.Depth()
	if l < 2 {
		return nil, false
	}
	li := rng.Intn(l - 1)
	lv := append(network.Level{}, c.Level(li)...)
	if len(lv) == 0 {
		return nil, false
	}
	k := rng.Intn(len(lv))
	other := func(r int) bool { return (r < n/2) != (lv[k].Max < n/2) }
	busy := make([]bool, n)
	for _, cm := range lv {
		busy[cm.Min], busy[cm.Max] = true, true
	}
	for r := 0; r < n; r++ {
		if other(r) && !busy[r] {
			lv[k].Max = r
			return rebuild(c, li, lv), true
		}
	}
	for j := range lv {
		if other(lv[j].Max) {
			lv[k].Max, lv[j].Max = lv[j].Max, lv[k].Max
			return rebuild(c, li, lv), true
		}
	}
	return nil, false
}

// TestDecomposeMatchesOracle: the rail-local decomposer accepts exactly
// the circuits the map-based oracle accepts — RDNs of every density,
// iterated stacks with random glue, and perturbations of them — and
// every structure either recovers behaves like its circuit.
func TestDecomposeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	rejected := 0
	for l := 1; l <= 8; l++ {
		n := 1 << uint(l)
		rdns := []*Network{Butterfly(l), Empty(l)}
		for _, density := range []float64{0.1, 0.3, 0.6, 1.0} {
			rdns = append(rdns, Random(l, density, rng))
		}
		for i, d := range rdns {
			c := d.ToNetwork()
			if !compareWithOracle(t, fmt.Sprintf("l=%d rdn %d", l, i), c, rng) {
				t.Fatalf("l=%d: rdn %d rejected", l, i)
			}
			var bad []*network.Network
			if moved, ok := moveAcrossTopSplit(c, rng); ok {
				bad = append(bad, moved)
			}
			if l >= 2 {
				bad = append(bad, rebuild(c, l-1, c.Level(l-2)))
			}
			bad = append(bad, c.Truncate(l-1), c.Clone().AddLevel(nil))
			for j, b := range bad {
				if !compareWithOracle(t, fmt.Sprintf("l=%d rdn %d perturbation %d", l, i, j), b, rng) {
					rejected++
				}
			}
		}

		// Iterated stacks with random glue: every block must agree
		// with the oracle, and the recovery must replay the circuit.
		it := NewIterated(n)
		it.AddBlock(nil, Butterfly(l))
		it.AddBlock(perm.Random(n, rng), Random(l, 1.0, rng))
		it.AddBlock(perm.Random(n, rng), Random(l, 0.3, rng))
		circ, _ := it.ToNetwork()
		for _, c := range []*network.Network{circ, rebuild(circ, l, circ.Level(l-1))} {
			got, ok := DecomposeIterated(c, l)
			oOK := true
			for b := 0; b < c.Depth()/l; b++ {
				seg := c.Slice(b*l, (b+1)*l)
				od, oRailOf, segOK := oracleDecomposeCircuit(seg)
				if segOK {
					checkRecovered(t, seg, od, oRailOf, rng)
				}
				oOK = oOK && segOK
			}
			if ok != oOK {
				t.Fatalf("l=%d: DecomposeIterated says %v, the oracle says %v", l, ok, oOK)
			}
			if !ok {
				rejected++
				continue
			}
			rc, _ := got.ToNetwork()
			for trial := 0; trial < 20; trial++ {
				x := []int(perm.Random(n, rng))
				if a, b := c.Eval(x), rc.Eval(x); !slices.Equal(a, b) {
					t.Fatalf("l=%d: recovered iterated network differs from the circuit", l)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no perturbed circuit was rejected: the reject path went untested")
	}
}

// decodeCircuit reads a 2^l-wire, l-level circuit from data: the first
// byte picks l in 1..3, then each level reads a comparator count and
// that many (min, max) wire pairs. Pairs that reuse a wire are
// dropped; missing bytes read as zero. l stops at 3 because the
// balanced-split backtracking, in both decomposers, is exponential in
// the number of components on some non-RDNs: a 16-wire circuit whose
// one comparator repeats on the next level takes over a second, and
// sparse 64-wire ones run for minutes. TestDecomposeMatchesOracle
// covers the wider circuits.
func decodeCircuit(data []byte) *network.Network {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	l := 1 + next()%3
	n := 1 << uint(l)
	c := network.New(n)
	for li := 0; li < l; li++ {
		used := make([]bool, n)
		var lv network.Level
		for k := next() % (n/2 + 1); k > 0; k-- {
			a, b := next()%n, next()%n
			if a == b || used[a] || used[b] {
				continue
			}
			used[a], used[b] = true, true
			lv = append(lv, network.Comparator{Min: a, Max: b})
		}
		c.AddLevel(lv)
	}
	return c
}

// encodeCircuit is decodeCircuit's inverse on l-level circuits with
// 2^l wires, l in 1..3.
func encodeCircuit(c *network.Network) []byte {
	out := []byte{byte(c.Depth() - 1)}
	for _, lv := range c.Levels() {
		out = append(out, byte(len(lv)))
		for _, cm := range lv {
			out = append(out, byte(cm.Min), byte(cm.Max))
		}
	}
	return out
}

// FuzzDecompose: on any decoded circuit the rail-local decomposer and
// the oracle agree on accept/reject, and both recoveries replay it.
func FuzzDecompose(f *testing.F) {
	rng := rand.New(rand.NewSource(76))
	for l := 1; l <= 3; l++ {
		f.Add(encodeCircuit(Butterfly(l).ToNetwork()))
		c := Random(l, 0.5, rng).ToNetwork()
		f.Add(encodeCircuit(c))
		if moved, ok := moveAcrossTopSplit(c, rng); ok {
			f.Add(encodeCircuit(moved))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareWithOracle(t, "fuzz", decodeCircuit(data), rand.New(rand.NewSource(77)))
	})
}

// TestDecomposeDeterministic: one circuit always yields the same
// structure, whatever order its levels list their comparators in.
func TestDecomposeDeterministic(t *testing.T) {
	const n, l = 256, 8
	rng := rand.New(rand.NewSource(78))
	it := NewIterated(n)
	it.AddBlock(nil, Butterfly(l))
	it.AddBlock(perm.Random(n, rng), Random(l, 1.0, rng))
	it.AddBlock(perm.Random(n, rng), Random(l, 0.5, rng))
	circ, _ := it.ToNetwork()
	text := func(c *network.Network) string {
		got, ok := DecomposeIterated(c, l)
		if !ok {
			t.Fatal("DecomposeIterated rejected an iterated RDN")
		}
		rc, _ := got.ToNetwork()
		var b bytes.Buffer
		if err := rc.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := text(circ)
	for call := 1; call < 20; call++ {
		if got := text(circ); got != want {
			t.Fatalf("call %d recovered a different structure", call)
		}
	}
	reordered := network.New(n)
	for _, lv := range circ.Levels() {
		rev := append(network.Level{}, lv...)
		slices.Reverse(rev)
		reordered.AddLevel(rev)
	}
	if got := text(reordered); got != want {
		t.Fatal("listing each level's comparators in reverse changed the recovered structure")
	}
}
