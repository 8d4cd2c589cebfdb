package halver

import (
	"math/rand"
	"testing"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/sortcheck"
)

func TestCrossMatchingsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := CrossMatchings(16, 4, rng)
	if c.Depth() != 4 || c.Size() != 4*8 || c.Wires() != 16 {
		t.Fatalf("shape: %v", c)
	}
	// Every comparator must cross the halves, min toward the bottom.
	for _, lv := range c.Levels() {
		for _, cm := range lv {
			if cm.Min >= 8 || cm.Max < 8 {
				t.Fatalf("comparator (%d,%d) does not cross downward", cm.Min, cm.Max)
			}
		}
	}
}

func TestEpsilonPerfectHalver(t *testing.T) {
	// A full sorting network is a 0-halver.
	c := netbuild.Bitonic(8)
	if eps := Epsilon(c, 0); eps != 0 {
		t.Errorf("sorting network has eps = %v", eps)
	}
}

func TestEpsilonEmptyNetwork(t *testing.T) {
	// The empty network is only a 1-halver (everything can be
	// misplaced).
	c := network.New(8)
	if eps := Epsilon(c, 0); eps != 1 {
		t.Errorf("empty network eps = %v, want 1", eps)
	}
}

func TestEpsilonSingleCrossMatching(t *testing.T) {
	// One perfect cross-matching guarantees eps <= 1/2 ... in fact a
	// single matching moves at least ceil(k/2)? No: with k ones all in
	// the bottom, each meets a distinct top wire carrying 0 and swaps
	// up; so NO one stays below: one matching is already a good halver
	// for k <= m? Not quite: ones meeting ones stay. Verify the exact
	// value is strictly below 1 and matches a brute-force check.
	rng := rand.New(rand.NewSource(2))
	c := CrossMatchings(12, 1, rng)
	eps := Epsilon(c, 0)
	if eps >= 1 {
		t.Errorf("one matching should beat the empty network, eps = %v", eps)
	}
	if eps != Epsilon(c, 1) {
		t.Errorf("parallel/sequential Epsilon disagree")
	}
}

func TestEpsilonImprovesWithPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 16
	prev := 1.1
	for _, passes := range []int{1, 3, 6} {
		c := CrossMatchings(n, passes, rand.New(rand.NewSource(int64(passes))))
		eps := Epsilon(c, 0)
		if eps > prev {
			t.Errorf("eps did not improve: passes=%d eps=%v prev=%v", passes, eps, prev)
		}
		prev = eps
	}
	_ = rng
}

func TestIsEpsilonHalver(t *testing.T) {
	c := CrossMatchings(12, 6, rand.New(rand.NewSource(4)))
	eps := Epsilon(c, 0)
	if !IsEpsilonHalver(c, eps, 0) {
		t.Error("network is not an (its own eps)-halver")
	}
	if IsEpsilonHalver(c, eps-0.05, 0) && eps >= 0.05 {
		t.Error("IsEpsilonHalver accepted a smaller eps")
	}
}

func TestCascadeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, passes := 32, 3
	c := Cascade(n, passes, rng)
	if c.Depth() != passes*5 {
		t.Fatalf("depth = %d, want %d", c.Depth(), passes*5)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeNearlySorts(t *testing.T) {
	// A halver cascade nearly sorts: more passes give systematically
	// lower dislocation and fewer inversions on random inputs (exact
	// sorting is rare — the cascade is the AKS skeleton without its
	// error-correction, so we grade by how *close* to sorted it gets).
	n := 64
	rich := Cascade(n, 6, rand.New(rand.NewSource(6)))
	poor := Cascade(n, 1, rand.New(rand.NewSource(6)))
	rng := rand.New(rand.NewSource(8))
	var dRich, dPoor, invRich, invPoor int64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		in := rng.Perm(n)
		outRich, outPoor := rich.Eval(in), poor.Eval(in)
		dRich += int64(sortcheck.MaxDislocation(outRich))
		dPoor += int64(sortcheck.MaxDislocation(outPoor))
		invRich += sortcheck.Inversions(outRich)
		invPoor += sortcheck.Inversions(outPoor)
	}
	if dRich >= dPoor {
		t.Errorf("mean dislocation did not improve: rich=%d poor=%d", dRich, dPoor)
	}
	if invRich >= invPoor/4 {
		t.Errorf("inversions should drop sharply: rich=%d poor=%d", invRich, invPoor)
	}
	// The rich cascade should leave only local disorder: average max
	// dislocation well below n/4.
	if dRich/trials > int64(n)/4 {
		t.Errorf("rich cascade mean dislocation %d >= n/4", dRich/trials)
	}
}

func TestGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("odd n", func() { CrossMatchings(7, 1, rand.New(rand.NewSource(1))) })
	mustPanic("Epsilon too wide", func() { Epsilon(network.New(MaxEpsilonWires+2), 0) })
	mustPanic("EpsilonScalar too wide", func() { EpsilonScalar(network.New(MaxEpsilonWires+2), 0) })
	mustPanic("Epsilon odd width", func() { Epsilon(network.New(9), 0) })
	mustPanic("Cascade non-pow2", func() { Cascade(12, 1, rand.New(rand.NewSource(1))) })
}

// TestEpsilonBitsMatchesScalar: the bit-sliced Epsilon and the scalar
// oracle must agree exactly (identical float divisions, max over the
// same set) across random cross-matchings of every even width up to
// 18 — including the n < 6 widths, whose one block has a short lane
// mask, and the empty network (passes = 0, ε = 1) — at every worker
// count, and across cascades.
func TestEpsilonBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 18; n += 2 {
		for passes := 0; passes <= 5; passes++ {
			c := CrossMatchings(n, passes, rng)
			want := EpsilonScalar(c, 0)
			if passes == 0 && want != 1 {
				t.Errorf("empty network on n=%d: scalar eps = %v, want 1", n, want)
			}
			for _, w := range []int{1, 2, 4} {
				if got := Epsilon(c, w); got != want {
					t.Errorf("CrossMatchings(n=%d, passes=%d), workers=%d: Epsilon %v != scalar %v", n, passes, w, got, want)
				}
			}
		}
	}
	for _, n := range []int{4, 8, 16} {
		c := Cascade(n, 2, rng)
		got := Epsilon(c, 0)
		want := EpsilonScalar(c, 0)
		if got != want {
			t.Errorf("Cascade(n=%d): Epsilon %v != scalar %v", n, got, want)
		}
	}
}

// TestEpsilonPinnedLarge pins the exact ε of four-pass cross-matchings
// at n = 20 and 22, where the scalar oracle is too slow to run. The
// literals were recorded from the per-lane reduction that preceded the
// weight-class one, so any change in a float division shows here.
func TestEpsilonPinnedLarge(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want float64
	}{
		{20, 1, 0.4},
		{20, 2, 0.3333333333333333},
		{22, 1, 0.36363636363636365},
		{22, 2, 0.375},
	} {
		c := CrossMatchings(tc.n, 4, rand.New(rand.NewSource(tc.seed)))
		for _, w := range []int{1, 2} {
			if got := Epsilon(c, w); got != tc.want {
				t.Errorf("CrossMatchings(%d, 4, seed %d), workers=%d: eps = %v, want %v", tc.n, tc.seed, w, got, tc.want)
			}
		}
	}
}
