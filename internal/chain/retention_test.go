package chain

import (
	"math/big"
	"testing"
)

func TestRetentionPrunesBodiesKeepsAggregates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retention = 4
	c := New(cfg)
	c.Fund("alice", big.NewInt(1_000_000))

	var wantBytes int
	var wantGas uint64
	for i := 0; i < 20; i++ {
		rcpt, err := c.Submit(&Tx{From: "alice", To: "bob", Data: []byte{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		c.Emit("tick", nil)
		blk := c.MineBlock()
		wantBytes += blk.ByteSize
		wantGas += blk.GasUsed
		if rcpt.Block != blk.Number {
			t.Fatalf("receipt predicted block %d, tx landed in %d", rcpt.Block, blk.Number)
		}
	}

	if got := len(c.Blocks()); got != 4 {
		t.Fatalf("retained %d blocks, want 4", got)
	}
	if c.Height() != 20 {
		t.Fatalf("height %d, want 20", c.Height())
	}
	if c.prunedBlockCount() != 17 { // genesis + 20 mined - 4 retained
		t.Fatalf("pruned %d blocks, want 17", c.prunedBlockCount())
	}
	if got := c.TotalBytes(); got != wantBytes {
		t.Fatalf("TotalBytes %d after pruning, want %d", got, wantBytes)
	}
	if got := c.TotalGas(); got != wantGas {
		t.Fatalf("TotalGas %d after pruning, want %d", got, wantGas)
	}

	// The event log is trimmed to the same window: nothing older than the
	// oldest retained block survives, and recent events do.
	events := c.Events()
	if len(events) == 0 {
		t.Fatal("no events retained")
	}
	oldest := c.Blocks()[0].Number
	for _, e := range events {
		if e.Block < oldest {
			t.Fatalf("event from block %d survived pruning (oldest retained %d)", e.Block, oldest)
		}
	}
}

func TestRetentionZeroKeepsEverything(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		c.Emit("tick", nil)
		c.MineBlock()
	}
	if got := len(c.Blocks()); got != 11 { // genesis + 10
		t.Fatalf("retained %d blocks, want 11", got)
	}
	if got := len(c.Events()); got != 10 {
		t.Fatalf("retained %d events, want 10", got)
	}
	if c.prunedBlockCount() != 0 {
		t.Fatalf("pruned %d blocks with retention disabled", c.prunedBlockCount())
	}
}
