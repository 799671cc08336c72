package beacon

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestTrustedDeterministic(t *testing.T) {
	b1, err := NewTrusted([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewTrusted([]byte("seed"))
	r1, _ := b1.Randomness(5)
	r2, _ := b2.Randomness(5)
	if !bytes.Equal(r1, r2) {
		t.Fatal("trusted beacon not deterministic")
	}
	if len(r1) != seedBytes {
		t.Fatalf("got %d bytes", len(r1))
	}
	r3, _ := b1.Randomness(6)
	if bytes.Equal(r1, r3) {
		t.Fatal("rounds collide")
	}
	// Random-seed construction must work too.
	if _, err := NewTrusted(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRevealHappyPath(t *testing.T) {
	g, err := NewCommitReveal(3)
	if err != nil {
		t.Fatal(err)
	}
	salts := make([][]byte, 3)
	contribs := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		salts[i] = []byte{byte(i), 1}
		contribs[i] = make([]byte, 32)
		rand.Read(contribs[i])
		if err := g.Commit(i, Commitment(salts[i], contribs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !g.AllCommitted() {
		t.Fatal("AllCommitted false after all commits")
	}
	for i := 0; i < 3; i++ {
		if err := g.Reveal(i, salts[i], contribs[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := g.Output()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != seedBytes {
		t.Fatalf("output %d bytes", len(out))
	}
	if len(g.NonRevealers()) != 0 {
		t.Fatal("unexpected non-revealers")
	}
}

func TestCommitRevealGuards(t *testing.T) {
	g, _ := NewCommitReveal(2)
	if _, err := NewCommitReveal(0); err == nil {
		t.Fatal("accepted zero parties")
	}
	if err := g.Commit(5, nil); err == nil {
		t.Fatal("accepted out-of-range party")
	}
	if err := g.Commit(0, Commitment([]byte("s"), []byte("c"))); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(0, []byte("again")); err == nil {
		t.Fatal("accepted double commit")
	}
	// Reveal before all commitments.
	if err := g.Reveal(0, []byte("s"), []byte("c")); err != ErrNotReady {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
	if err := g.Commit(1, Commitment([]byte("t"), []byte("d"))); err != nil {
		t.Fatal(err)
	}
	// Bad opening.
	if err := g.Reveal(0, []byte("s"), []byte("WRONG")); err != ErrBadCommit {
		t.Fatalf("err = %v, want ErrBadCommit", err)
	}
	if err := g.Reveal(0, []byte("s"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := g.Reveal(0, []byte("s"), []byte("c")); err == nil {
		t.Fatal("accepted double reveal")
	}
	// Output with one of two revealed still works (the bias loophole).
	out, err := g.Output()
	if err != nil || len(out) != seedBytes {
		t.Fatalf("partial output: %v", err)
	}
	if got := g.NonRevealers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("non-revealers = %v", got)
	}
}

func TestOutputRequiresSomeReveal(t *testing.T) {
	g, _ := NewCommitReveal(1)
	g.Commit(0, Commitment([]byte("s"), []byte("c")))
	if _, err := g.Output(); err != ErrNotReady {
		t.Fatalf("err = %v", err)
	}
}

func TestLastRevealerAdvantage(t *testing.T) {
	// Predicate: first output byte is even (p = 1/2). An honest beacon
	// hits ~50%; the withholding adversary hits ~75%.
	predicate := func(b []byte) bool { return b[0]%2 == 0 }
	adv, err := LastRevealerAdvantage(3, 400, predicate)
	if err != nil {
		t.Fatal(err)
	}
	if adv < 0.65 || adv > 0.85 {
		t.Fatalf("adversary success = %.3f, want ~0.75", adv)
	}
	if _, err := LastRevealerAdvantage(1, 10, predicate); err == nil {
		t.Fatal("accepted single-party attack")
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	if m.RoundGas(10) != 10*(m.CommitGas+m.RevealGas)+m.FoldGas {
		t.Fatal("round gas arithmetic wrong")
	}
}
