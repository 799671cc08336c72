package chain

import (
	"errors"
	"math/big"
	"testing"
)

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
	if err := c.Transfer("alice", "bob", eth(2)); err != nil {
		t.Fatal(err)
	}
	if c.Balance("alice").Cmp(eth(3)) != 0 || c.Balance("bob").Cmp(eth(2)) != 0 {
		t.Fatal("balances wrong after transfer")
	}
	if err := c.Transfer("alice", "bob", eth(100)); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraft err = %v", err)
	}
	if err := c.Transfer("alice", "bob", big.NewInt(-1)); err == nil {
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
	if err := c.Unlock("sp", eth(10), "owner"); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatal("over-unlock accepted")
	}
	if err := c.Lock("sp", eth(100)); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatal("over-lock accepted")
	}
}

func TestCalldataGas(t *testing.T) {
	g := DefaultGasSchedule()
	data := []byte{0, 0, 1, 2}
	if got := g.CalldataGas(data); got != 2*4+2*16 {
		t.Fatalf("calldata gas = %d", got)
	}
	if g.StorageGas(33) != 2*20000 {
		t.Fatal("storage gas word rounding wrong")
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
	if _, err := c.Submit(&Tx{From: "a", To: "b", ExtraGas: 10_000}); !errors.Is(err, ErrBlockGasExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockTimestamps(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	t0 := c.Now()
	c.MineBlock()
	c.MineBlock()
	if got := c.Now().Sub(t0); got != 2*cfg.BlockInterval {
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
	if n := c.HistoryReads(); n != 0 {
		t.Fatalf("fresh chain history reads = %d", n)
	}
	c.MineBlock()
	c.Emit("challenged", nil)
	if n := c.HistoryReads(); n != 0 {
		t.Fatalf("history reads = %d after mining and emitting, want 0", n)
	}
	c.Events()
	c.Blocks()
	if n := c.HistoryReads(); n != 2 {
		t.Fatalf("history reads = %d after Events+Blocks, want 2", n)
	}
}
