package network

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shufflenet/internal/perm"
)

func registerEquivalent(t *testing.T, a, b *Register, trials int, rng *rand.Rand) {
	t.Helper()
	if a.Registers() != b.Registers() || a.Depth() != b.Depth() || a.Size() != b.Size() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	for i := 0; i < trials; i++ {
		in := []int(perm.Random(a.Registers(), rng))
		x, y := a.Eval(in), b.Eval(in)
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("behavioural mismatch on %v", in)
			}
		}
	}
}

func TestRegisterTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		n := 2 * (1 + rng.Intn(8))
		r := randomRegister(n, 1+rng.Intn(6), rng)
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRegisterText(&buf)
		if err != nil {
			t.Fatalf("parse failed: %v", err)
		}
		registerEquivalent(t, r, back, 10, rng)
	}
}

func TestRegisterTextNamedPermutations(t *testing.T) {
	n := 8
	r := NewRegister(n)
	r.AddStep(Step{Pi: perm.Shuffle(n), Ops: []Op{OpPlus, OpNone, OpMinus, OpSwap}})
	r.AddStep(Step{Pi: perm.Unshuffle(n)})
	r.AddStep(Step{}) // identity, no ops
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pi shuffle") || !strings.Contains(out, "pi unshuffle") {
		t.Errorf("named permutations not used:\n%s", out)
	}
	if !strings.Contains(out, "step .") {
		t.Errorf("empty ops not abbreviated:\n%s", out)
	}
	back, err := ReadRegisterText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	registerEquivalent(t, r, back, 10, rand.New(rand.NewSource(62)))
}

func TestReadRegisterTextErrors(t *testing.T) {
	bad := []string{
		"",
		"step +\n",
		"registers 3\n",
		"registers x\n",
		"registers 4\nregisters 4\n",
		"registers 4\nstep\n",
		"registers 4\nstep ++0\n",           // wrong ops length
		"registers 4\nstep ?+\n",            // bad op char
		"registers 4\nstep ++ pi 0 1\n",     // short perm
		"registers 4\nstep ++ pi 0 0 1 2\n", // invalid perm
		"registers 4\nstep ++ rho 1\n",      // unknown token
		"registers 4\nbogus\n",
		fmt.Sprintf("registers %d\n", MaxTextRegisters+2),
		"registers 1073741824\nstep . pi shuffle\n", // would allocate 8 GiB
	}
	for _, src := range bad {
		if _, err := ReadRegisterText(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	atCap := fmt.Sprintf("registers %d\nstep . pi shuffle\n", MaxTextRegisters)
	if _, err := ReadRegisterText(strings.NewReader(atCap)); err != nil {
		t.Errorf("rejected %q: %v", atCap, err)
	}
}

func TestReadRegisterTextComments(t *testing.T) {
	src := "# stone fragment\nregisters 4\n\nstep ++ pi shuffle\nstep .\n"
	r, err := ReadRegisterText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() != 2 || r.Size() != 2 || !r.Steps()[0].Pi.Equal(perm.Shuffle(4)) {
		t.Errorf("parsed wrong: %v", r)
	}
}
