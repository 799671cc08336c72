package snark

import (
	"crypto/rand"
	"testing"
	"time"

	"repro/cmd/experiments/internal/merkle"
)

func buildTree(t *testing.T, leaves int) (*merkle.Tree, [][]byte) {
	t.Helper()
	data := make([][]byte, leaves)
	for i := range data {
		data[i] = make([]byte, 32)
		rand.Read(data[i])
	}
	tree, err := merkle.New(data)
	if err != nil {
		t.Fatal(err)
	}
	return tree, data
}

func TestCircuitForFile(t *testing.T) {
	c := CircuitForFile(1024, 32) // 32 leaves -> depth 5
	if c.Depth != 5 {
		t.Fatalf("depth = %d, want 5", c.Depth)
	}
	if c.constraints() != (1+2*5)*constraintsPerHash {
		t.Fatalf("constraints = %d", c.constraints())
	}
	if c0 := CircuitForFile(0, 32); c0.Depth != 0 {
		t.Fatalf("empty file depth = %d, want 0", c0.Depth)
	}
}

func TestReferenceCostModelMatchesTableII(t *testing.T) {
	// Table II's strawman row (1 KB file): ~3x10^5 constraints, 260 s
	// setup, 150 MB params, 30 s prove, ~300 MB memory, 30 ms verify.
	// The cost model is exact at the 3e5 reference point; the 1 KB
	// circuit lands within 1% of it.
	m := ReferenceCostModel()
	c := CircuitForFile(1024, 32)
	costs := m.Estimate(c)
	if costs.Constraints < 295000 || costs.Constraints > 305000 {
		t.Fatalf("constraints = %d, want ~300000", costs.Constraints)
	}
	ratio := float64(costs.Constraints) / 300000
	if got, want := costs.SetupTime.Seconds(), 260*ratio; got < want*0.99 || got > want*1.01 {
		t.Fatalf("setup time = %v, want ~%.0fs", costs.SetupTime, want)
	}
	if got, want := float64(costs.ParamBytes), 150*float64(1<<20)*ratio; got < want*0.99 || got > want*1.01 {
		t.Fatalf("param bytes = %d, want ~%.0f", costs.ParamBytes, want)
	}
	if got, want := costs.ProveTime.Seconds(), 30*ratio; got < want*0.99 || got > want*1.01 {
		t.Fatalf("prove time = %v, want ~%.0fs", costs.ProveTime, want)
	}
	if costs.VerifyTime != 30*time.Millisecond {
		t.Fatalf("verify time = %v, want 30ms", costs.VerifyTime)
	}
}

func TestProveVerify(t *testing.T) {
	tree, data := buildTree(t, 16)
	c := Circuit{LeafBytes: 32, Depth: 4} // 16 leaves
	pk, vk, err := TrustedSetup(c, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	witness, err := tree.Prove(3, data[3])
	if err != nil {
		t.Fatal(err)
	}
	st := Statement{Root: tree.Root(), Index: 3}
	proof, err := pk.Prove(st, 16, witness, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !vk.Verify(st, proof) {
		t.Fatal("valid proof rejected")
	}

	// Wrong statement index must fail.
	if vk.Verify(Statement{Root: tree.Root(), Index: 4}, proof) {
		t.Fatal("proof verified for the wrong index")
	}
	// Tampered proof must fail.
	bad := *proof
	bad.Data[40] ^= 1
	if vk.Verify(st, &bad) {
		t.Fatal("tampered proof accepted")
	}
	badTail := *proof
	badTail.Data[ProofSize-1] ^= 1
	if vk.Verify(st, &badTail) {
		t.Fatal("proof with tampered tail accepted")
	}
	if vk.Verify(st, nil) {
		t.Fatal("nil proof accepted")
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	tree, data := buildTree(t, 8)
	c := Circuit{LeafBytes: 32, Depth: 4} // 16 leaves
	pk, _, _ := TrustedSetup(c, rand.Reader)

	witness, _ := tree.Prove(2, data[2])
	other, _ := buildTree(t, 8)
	// Statement root from a different tree: honest prover must refuse.
	st := Statement{Root: other.Root(), Index: 2}
	if _, err := pk.Prove(st, 8, witness, rand.Reader); err == nil {
		t.Fatal("prover produced a proof for a false statement")
	}
	// Index mismatch between statement and witness.
	if _, err := pk.Prove(Statement{Root: tree.Root(), Index: 1}, 8, witness, rand.Reader); err == nil {
		t.Fatal("prover accepted witness/statement index mismatch")
	}
	if _, err := pk.Prove(st, 8, nil, rand.Reader); err == nil {
		t.Fatal("prover accepted nil witness")
	}
}

func TestProofHidesWitness(t *testing.T) {
	// Two proofs for the same statement are unlinkable (fresh randomness),
	// and proofs do not contain leaf bytes.
	tree, data := buildTree(t, 8)
	c := Circuit{LeafBytes: 32, Depth: 4} // 16 leaves
	pk, vk, _ := TrustedSetup(c, rand.Reader)
	witness, _ := tree.Prove(2, data[2])
	st := Statement{Root: tree.Root(), Index: 2}

	p1, _ := pk.Prove(st, 8, witness, rand.Reader)
	p2, _ := pk.Prove(st, 8, witness, rand.Reader)
	if p1.Data == p2.Data {
		t.Fatal("proofs for the same statement are identical: not hiding")
	}
	if !vk.Verify(st, p1) || !vk.Verify(st, p2) {
		t.Fatal("rerandomized proofs rejected")
	}
}

func TestTrustedSetupErrors(t *testing.T) {
	if _, _, err := TrustedSetup(Circuit{LeafBytes: 0, Depth: 1}, nil); err == nil {
		t.Fatal("accepted invalid circuit")
	}
}
