package chain

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestConcurrentSubmitAndMine exercises the ledger under parallel load:
// many goroutines submitting transactions and emitting events while a miner
// seals blocks. Run with -race to catch synchronization bugs.
func TestConcurrentSubmitAndMine(t *testing.T) {
	c := New(DefaultConfig())
	const workers = 8
	const perWorker = 50

	for w := 0; w < workers; w++ {
		c.Fund(Address(fmt.Sprintf("acct-%d", w)), big.NewInt(1_000_000))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := Address(fmt.Sprintf("acct-%d", w))
			for i := 0; i < perWorker; i++ {
				if _, err := c.Submit(&Tx{From: from, To: "sink", Value: big.NewInt(1)}); err != nil {
					t.Error(err)
					return
				}
				c.Emit("tick", nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			// Drain the mempool.
			for c.PendingCount() > 0 {
				c.MineBlock()
			}
			total := 0
			for _, b := range c.Blocks() {
				total += len(b.Txs)
			}
			if total != workers*perWorker {
				t.Fatalf("mined %d txs, want %d", total, workers*perWorker)
			}
			if c.Balance("sink").Cmp(big.NewInt(workers*perWorker)) != 0 {
				t.Fatalf("sink balance %v", c.Balance("sink"))
			}
			if len(c.Events()) != workers*perWorker {
				t.Fatalf("%d events", len(c.Events()))
			}
			return
		default:
			c.MineBlock()
		}
	}
}

// TestConcurrentBalanceReads hammers reads against writes.
func TestConcurrentBalanceReads(t *testing.T) {
	c := New(DefaultConfig())
	c.Fund("a", big.NewInt(1_000_000))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Balance("a")
				c.LockedBalance("a")
				c.TotalBytes()
				c.Height()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = c.transfer("a", "b", big.NewInt(1))
				_ = c.Lock("a", big.NewInt(1))
				_ = c.Unlock("a", big.NewInt(1), "a")
			}
		}()
	}
	wg.Wait()
}
