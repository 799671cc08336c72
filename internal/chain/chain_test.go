package chain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// Submit is SubmitOp for a transaction no contract call logs.
func (c *Chain) Submit(tx *Tx) (*Receipt, error) { return c.SubmitOp(tx, nil) }

func eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

func TestFundAndBalance(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("alice", eth(5))
	if c.Balance("alice").Cmp(eth(5)) != 0 {
		t.Fatal("balance wrong after funding")
	}
	if c.Balance("nobody").Sign() != 0 {
		t.Fatal("unknown account has balance")
	}
}

func TestTransfer(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("alice", eth(5))
	if err := c.transfer("alice", "bob", eth(2)); err != nil {
		t.Fatal(err)
	}
	if c.Balance("alice").Cmp(eth(3)) != 0 || c.Balance("bob").Cmp(eth(2)) != 0 {
		t.Fatal("balances wrong after transfer")
	}
	if err := c.transfer("alice", "bob", eth(100)); !errors.Is(err, errInsufficientFunds) {
		t.Fatalf("overdraft err = %v", err)
	}
	if err := c.transfer("alice", "bob", big.NewInt(-1)); err == nil {
		t.Fatal("negative transfer accepted")
	}
}

func TestLockUnlock(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("sp", eth(10))
	if err := c.Lock("sp", eth(4)); err != nil {
		t.Fatal(err)
	}
	if c.Balance("sp").Cmp(eth(6)) != 0 || c.LockedBalance("sp").Cmp(eth(4)) != 0 {
		t.Fatal("lock accounting wrong")
	}
	// Slash half the escrow to the owner.
	if err := c.Unlock("sp", eth(2), "owner"); err != nil {
		t.Fatal(err)
	}
	if c.Balance("owner").Cmp(eth(2)) != 0 || c.LockedBalance("sp").Cmp(eth(2)) != 0 {
		t.Fatal("unlock accounting wrong")
	}
	if err := c.Unlock("sp", eth(10), "owner"); !errors.Is(err, errInsufficientFunds) {
		t.Fatal("over-unlock accepted")
	}
	if err := c.Lock("sp", eth(100)); !errors.Is(err, errInsufficientFunds) {
		t.Fatal("over-lock accepted")
	}
}

func TestCalldataGas(t *testing.T) {
	g := defaultGasSchedule()
	data := []byte{0, 0, 1, 2}
	if got := g.calldataGas(data); got != 2*4+2*16 {
		t.Fatalf("calldata gas = %d", got)
	}
	if g.StorageGas(33) != 2*20000 {
		t.Fatal("storage gas word rounding wrong")
	}
}

// TestCalldataGasMatchesPerByte pins calldataGas against the per-byte
// schedule it counts: 4 gas per zero byte, 16 per non-zero byte.
func TestCalldataGasMatchesPerByte(t *testing.T) {
	g := defaultGasSchedule()
	random := make([]byte, 1000)
	rand.New(rand.NewSource(7)).Read(random)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"all zero", make([]byte, 97)},
		{"no zero", bytes.Repeat([]byte{0xA5}, 97)},
		{"random", random},
	} {
		var want uint64
		for _, b := range tc.data {
			if b == 0 {
				want += g.CalldataZero
			} else {
				want += g.CalldataNonZero
			}
		}
		if got := g.calldataGas(tc.data); got != want {
			t.Errorf("%s: calldata gas = %d, want %d", tc.name, got, want)
		}
	}
}

func TestSubmitMeteringAndMining(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("alice", eth(1))
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i) // mix of one zero byte and 99 non-zero
	}
	rcpt, err := c.Submit(&Tx{From: "alice", To: "contract", Data: data, ExtraGas: 5000})
	if err != nil {
		t.Fatal(err)
	}
	wantGas := uint64(21000) + 1*4 + 99*16 + 5000
	if rcpt.GasUsed != wantGas {
		t.Fatalf("gas = %d, want %d", rcpt.GasUsed, wantGas)
	}

	blk := c.MineBlock()
	if blk.Number != 1 || len(blk.Txs) != 1 || blk.GasUsed != wantGas {
		t.Fatalf("block = %+v", blk)
	}
	if blk.ByteSize != 110+100 {
		t.Fatalf("block size = %d", blk.ByteSize)
	}
	if c.Height() != 1 {
		t.Fatal("height wrong")
	}
	if c.TotalBytes() != blk.ByteSize {
		t.Fatal("total bytes wrong")
	}
	if c.TotalGas() != wantGas {
		t.Fatal("total gas wrong")
	}
}

func TestSubmitValueTransfers(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("alice", eth(3))
	if _, err := c.Submit(&Tx{From: "alice", To: "bob", Value: eth(1)}); err != nil {
		t.Fatal(err)
	}
	if c.Balance("bob").Cmp(eth(1)) != 0 {
		t.Fatal("value transfer not applied")
	}
	if _, err := c.Submit(&Tx{From: "alice", To: "bob", Value: eth(10)}); err == nil {
		t.Fatal("overdraft via Submit accepted")
	}
}

func TestBlockGasLimitSpillover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockGasLimit = 50000 // fits two bare txs, not three
	c := New(cfg)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(&Tx{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	b1 := c.MineBlock()
	if len(b1.Txs) != 2 {
		t.Fatalf("block 1 has %d txs, want 2", len(b1.Txs))
	}
	if c.PendingCount() != 1 {
		t.Fatal("spillover not kept pending")
	}
	b2 := c.MineBlock()
	if len(b2.Txs) != 1 {
		t.Fatalf("block 2 has %d txs, want 1", len(b2.Txs))
	}
}

func TestSubmitRejectsOversizedTx(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockGasLimit = 22000
	c := New(cfg)
	if _, err := c.Submit(&Tx{From: "a", To: "b", ExtraGas: 10_000}); !errors.Is(err, errBlockGasExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockTimestamps(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	t0 := c.now()
	c.MineBlock()
	c.MineBlock()
	if got := c.now().Sub(t0); got != 2*cfg.BlockInterval {
		t.Fatalf("clock advanced %v, want %v", got, 2*cfg.BlockInterval)
	}
}

func TestEvents(t *testing.T) {
	c := New(DefaultConfig())
	c.Emit("challenged", []byte{1})
	c.Emit("proofposted", nil)
	evs := c.Events()
	if len(evs) != 2 || evs[0].Name != "challenged" || evs[1].Name != "proofposted" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestHistoryReadsCounter(t *testing.T) {
	c := New(DefaultConfig())
	if n := c.historyReadCount(); n != 0 {
		t.Fatalf("fresh chain history reads = %d", n)
	}
	c.MineBlock()
	c.Emit("challenged", nil)
	if n := c.historyReadCount(); n != 0 {
		t.Fatalf("history reads = %d after mining and emitting, want 0", n)
	}
	c.Events()
	c.Blocks()
	if n := c.historyReadCount(); n != 2 {
		t.Fatalf("history reads = %d after Events+Blocks, want 2", n)
	}
}

// now returns the latest block timestamp (the contract's clock).
func (c *Chain) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1].Time
}

// transfer moves value between accounts immediately (used by contract
// logic; gas for the enclosing call is charged via Submit).
func (c *Chain) transfer(from, to Address, amount *big.Int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transferLocked(from, to, amount)
}

// TestSubmitReferencing: the chain posts content once, in front of its
// digest, and every later reference with the digest alone; of concurrent
// callers with one content exactly one posts it; a submission the chain
// refuses records nothing, so the next caller posts the content again.
func TestSubmitReferencing(t *testing.T) {
	c := New(DefaultConfig())
	g := c.Config().Gas
	content := []byte("a key body")
	digest := sha256.Sum256(content)
	ref := func() *Tx { return &Tx{From: "o", To: "k", Data: []byte("name"), ExtraGas: 7} }
	const callers = 8
	fresh := make(chan bool, callers)
	for i := 0; i < callers; i++ {
		go func() {
			f, err := c.SubmitReferencing(content, ref(), nil)
			if err != nil {
				t.Error(err)
			}
			fresh <- f
		}()
	}
	n := 0
	for i := 0; i < callers; i++ {
		if <-fresh {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d callers posted the content, want 1", n)
	}
	blk := c.MineBlock()
	if len(blk.Txs) != callers {
		t.Fatalf("mined %d txs, want %d", len(blk.Txs), callers)
	}
	first := append(append(append([]byte(nil), content...), digest[:]...), "name"...)
	later := append(append([]byte(nil), digest[:]...), "name"...)
	for i, tx := range blk.Txs {
		want := later
		if i == 0 {
			want = first
		}
		if !bytes.Equal(tx.Data, want) {
			t.Fatalf("tx %d posted %q, want %q", i, tx.Data, want)
		}
	}
	gas := uint64(callers)*(g.TxBase+7) + g.calldataGas(first) + g.StorageGas(len(content)) + uint64(callers-1)*g.calldataGas(later)
	if blk.GasUsed != gas {
		t.Fatalf("block gas %d, want %d", blk.GasUsed, gas)
	}

	other := []byte("another body")
	huge := &Tx{From: "o", To: "k", ExtraGas: DefaultConfig().BlockGasLimit}
	if f, err := c.SubmitReferencing(other, huge, nil); !errors.Is(err, errBlockGasExceeded) || f {
		t.Fatalf("over-limit tx: fresh %v, err %v", f, err)
	}
	if f, err := c.SubmitReferencing(other, ref(), nil); err != nil || !f {
		t.Fatalf("after a refused tx: fresh %v, err %v; want the content posted", f, err)
	}
}
