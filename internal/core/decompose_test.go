package core

import (
	"bytes"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

// The adversary must work on networks given only as circuits: flatten
// an iterated RDN, recover the structure with DecomposeIterated, run
// Theorem 4.1 on the recovery, and verify the certificate against the
// ORIGINAL circuit.
func TestAdversaryOnDecomposedCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{32, 64} {
		l := lg(n)
		orig := delta.NewIterated(n)
		orig.AddBlock(nil, delta.Butterfly(l))
		orig.AddBlock(perm.Random(n, rng), delta.Random(l, 1.0, rng))
		circ, _ := orig.ToNetwork()

		recovered, ok := delta.DecomposeIterated(circ, l)
		if !ok {
			t.Fatalf("n=%d: decomposition failed", n)
		}
		an := Theorem41(recovered, 0)
		if len(an.D) < 2 {
			t.Fatalf("n=%d: adversary found nothing on the recovered structure", n)
		}
		cert, err := an.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		// Verified against the original circuit, not the recovery.
		if err := cert.Verify(circ); err != nil {
			t.Fatalf("n=%d: certificate rejected by the original circuit: %v", n, err)
		}
	}
}

// Round-trip soundness: a decomposed sorting network still defeats the
// adversary.
func TestAdversaryOnDecomposedBitonic(t *testing.T) {
	d := 4
	circ, _ := delta.BitonicIterated(d).ToNetwork()
	recovered, ok := delta.DecomposeIterated(circ, d)
	if !ok {
		t.Fatal("decomposition failed")
	}
	an := Theorem41(recovered, 0)
	if _, err := an.Certificate(); err == nil {
		t.Fatal("certificate extracted from a (decomposed) sorting network")
	}
}

// TestAdversaryOnDecomposedCircuitDeterministic: a circuit given as a
// file always yields the same adversary result — repeated recoveries
// of one circuit give the same |D| and a byte-identical certificate.
func TestAdversaryOnDecomposedCircuitDeterministic(t *testing.T) {
	const n = 256
	l := lg(n)
	rng := rand.New(rand.NewSource(82))
	orig := delta.NewIterated(n)
	orig.AddBlock(nil, delta.Butterfly(l))
	orig.AddBlock(perm.Random(n, rng), delta.Random(l, 1.0, rng))
	orig.AddBlock(perm.Random(n, rng), delta.Butterfly(l))
	circ, _ := orig.ToNetwork()

	var wantD int
	var wantCert []byte
	for call := 0; call < 5; call++ {
		recovered, ok := delta.DecomposeIterated(circ, l)
		if !ok {
			t.Fatal("decomposition failed")
		}
		an := Theorem41(recovered, 0)
		cert, err := an.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Verify(circ); err != nil {
			t.Fatalf("certificate rejected by the circuit: %v", err)
		}
		var b bytes.Buffer
		if err := cert.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if call == 0 {
			wantD, wantCert = len(an.D), b.Bytes()
			continue
		}
		if len(an.D) != wantD {
			t.Fatalf("call %d: |D| = %d, first call gave %d", call, len(an.D), wantD)
		}
		if !bytes.Equal(b.Bytes(), wantCert) {
			t.Fatalf("call %d: certificate differs from the first call's", call)
		}
	}
}
