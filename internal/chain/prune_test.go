package chain

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refChain is the retention rule written the naive way — every block copies
// the window it keeps into fresh slices and meters its transactions again
// from their calldata — for the in-place Chain to be compared against.
type refChain struct {
	cfg        Config
	blocks     []*Block
	events     []Event
	pending    []*Tx
	txCount    int
	totalBytes int
	totalGas   uint64
	pruned     uint64
}

func newRefChain(cfg Config) *refChain {
	return &refChain{cfg: cfg, blocks: []*Block{{Number: 0, Time: cfg.GenesisTime}}}
}

func (r *refChain) gas(tx *Tx) uint64 {
	return r.cfg.Gas.TxBase + r.cfg.Gas.CalldataGas(tx.Data) + tx.ExtraGas
}

func (r *refChain) next() uint64 { return r.blocks[len(r.blocks)-1].Number + 1 }

func (r *refChain) submit(tx *Tx) Receipt {
	r.pending = append(r.pending, tx)
	r.txCount++
	return Receipt{TxIndex: r.txCount - 1, Block: r.next(), GasUsed: r.gas(tx), DataSize: len(tx.Data)}
}

func (r *refChain) emit(name string, data []byte) {
	r.events = append(r.events, Event{Block: r.next(), Name: name, Data: data})
}

func (r *refChain) mine() *Block {
	prev := r.blocks[len(r.blocks)-1]
	blk := &Block{Number: prev.Number + 1, Time: prev.Time.Add(r.cfg.BlockInterval)}
	var kept []*Tx
	for i, tx := range r.pending {
		if blk.GasUsed+r.gas(tx) > r.cfg.BlockGasLimit && len(blk.Txs) > 0 {
			kept = append(kept, r.pending[i:]...)
			break
		}
		blk.GasUsed += r.gas(tx)
		blk.Txs = append(blk.Txs, tx)
		blk.ByteSize += 110 + len(tx.Data)
	}
	r.pending = kept
	r.blocks = append(r.blocks, blk)
	r.totalBytes += blk.ByteSize
	r.totalGas += blk.GasUsed
	if ret := r.cfg.Retention; ret > 0 && uint64(len(r.blocks)) > ret {
		drop := uint64(len(r.blocks)) - ret
		r.blocks = append([]*Block(nil), r.blocks[drop:]...)
		r.pruned += drop
		var live []Event
		for _, e := range r.events {
			if e.Block >= r.blocks[0].Number {
				live = append(live, e)
			}
		}
		r.events = live
	}
	return blk
}

func sameBlock(a, b *Block) error {
	if a.Number != b.Number || !a.Time.Equal(b.Time) || a.GasUsed != b.GasUsed || a.ByteSize != b.ByteSize || len(a.Txs) != len(b.Txs) {
		return fmt.Errorf("block %+v, want %+v", a, b)
	}
	for i := range a.Txs {
		if a.Txs[i] != b.Txs[i] {
			return fmt.Errorf("block %d tx %d is not the transaction submitted in that place", a.Number, i)
		}
	}
	return nil
}

// TestRetentionMatchesReference drives the chain and the reference through
// the same seeded sequences of Submit, Emit and MineBlock — the gas limit
// fits two or three of the transactions, so blocks overflow into the next —
// and compares everything a caller can observe after every block.
func TestRetentionMatchesReference(t *testing.T) {
	for _, retention := range []uint64{0, 1, 2, 4, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.Retention = retention
			cfg.BlockGasLimit = 70_000
			c, ref := New(cfg), newRefChain(cfg)
			fail := func(blk uint64, format string, args ...any) {
				t.Helper()
				t.Fatalf("retention %d, seed %d, block %d: %s", retention, seed, blk, fmt.Sprintf(format, args...))
			}
			for n := 0; n < 200; n++ {
				for ops := rng.Intn(9); ops > 0; ops-- {
					if rng.Intn(2) == 0 {
						data := make([]byte, rng.Intn(40))
						rng.Read(data)
						tx := &Tx{From: "a", To: "b", Data: data, ExtraGas: uint64(rng.Intn(20_000))}
						got, err := c.Submit(tx)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.submit(tx); *got != want {
							fail(ref.next(), "receipt %+v, want %+v", *got, want)
						}
					} else {
						var data []byte
						if rng.Intn(2) == 0 {
							data = []byte{byte(n), byte(ops)}
						}
						name := fmt.Sprintf("ev%d", rng.Intn(3))
						c.Emit(name, data)
						ref.emit(name, data)
					}
				}
				got, want := c.MineBlock(), ref.mine()
				h := want.Number
				if err := sameBlock(got, want); err != nil {
					fail(h, "mined %v", err)
				}
				if c.Height() != h || c.TotalGas() != ref.totalGas || c.TotalBytes() != ref.totalBytes ||
					c.PrunedBlocks() != ref.pruned || c.PendingCount() != len(ref.pending) {
					fail(h, "height %d gas %d bytes %d pruned %d pending %d, want %d %d %d %d %d",
						c.Height(), c.TotalGas(), c.TotalBytes(), c.PrunedBlocks(), c.PendingCount(),
						h, ref.totalGas, ref.totalBytes, ref.pruned, len(ref.pending))
				}
				blocks := c.Blocks()
				if len(blocks) != len(ref.blocks) {
					fail(h, "%d blocks retained, want %d", len(blocks), len(ref.blocks))
				}
				for i := range blocks {
					if err := sameBlock(blocks[i], ref.blocks[i]); err != nil {
						fail(h, "retained %v", err)
					}
				}
				events := c.Events()
				if len(events) != len(ref.events) {
					fail(h, "%d events retained, want %d", len(events), len(ref.events))
				}
				for i, e := range events {
					if w := ref.events[i]; e.Block != w.Block || e.Name != w.Name || !bytes.Equal(e.Data, w.Data) {
						fail(h, "event %d is %+v, want %+v", i, e, w)
					}
				}
			}
		}
	}
}

// TestPruneClearsVacatedSlots: pruning in place must leave nothing behind
// that pins a dropped block, its transactions or an event's data. After every
// step, every slot of both backing arrays outside the live window is zero —
// through a prune, a move of the log within its array and a move to a new one.
func TestPruneClearsVacatedSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retention = 4
	c := New(cfg)
	check := func(step string) {
		t.Helper()
		if len(c.blocks) > 4 {
			t.Fatalf("%s: %d blocks in the window", step, len(c.blocks))
		}
		for i, b := range c.blocks[len(c.blocks):cap(c.blocks)] {
			if b != nil {
				t.Fatalf("%s: slot %d past the block window still holds block %d", step, i, b.Number)
			}
		}
		for i, e := range c.events[:cap(c.events)] {
			live := i >= c.eventHead && i < len(c.events)
			if !live && (e.Block != 0 || e.Name != "" || e.Data != nil) {
				t.Fatalf("%s: event slot %d (head %d, len %d) still holds %+v", step, i, c.eventHead, len(c.events), e)
			}
			if live && e.Block < c.blocks[0].Number {
				t.Fatalf("%s: live event slot %d is from pruned block %d", step, i, e.Block)
			}
		}
	}
	var advanced, slid, regrown bool
	for n := 0; n < 96; n++ {
		emits := 1 + n%3
		if n == 60 {
			emits = 300 // more live events than the array has dead slots: it must grow, dropping a prefix
		}
		for i := 0; i < emits; i++ {
			if _, err := c.Submit(&Tx{From: "a", To: "b", Data: []byte{1}}); err != nil {
				t.Fatal(err)
			}
			head, array := c.eventHead, cap(c.events)
			c.Emit("ev", []byte{byte(n)})
			if head > 0 && c.eventHead == 0 {
				slid = slid || cap(c.events) == array
				regrown = regrown || cap(c.events) != array
			}
			check(fmt.Sprintf("block %d, emit %d", n+1, i))
		}
		head := c.eventHead
		c.MineBlock()
		advanced = advanced || c.eventHead > head
		check(fmt.Sprintf("block %d mined", n+1))
	}
	if !advanced || !slid || !regrown {
		t.Fatalf("the run did not exercise every step: head advanced %v, log moved in place %v, into a new array %v", advanced, slid, regrown)
	}
}

// TestMineBlockBytesIndependentOfRetention is the O(due) property: what a
// steady-state block allocates does not depend on how many blocks are
// retained. It counts bytes (a TotalAlloc delta), not allocations — copying
// the retained window per block was three allocations whatever its size.
func TestMineBlockBytesIndependentOfRetention(t *testing.T) {
	const perBlock, measured = 8, 200
	bytesPerBlock := func(retention int) float64 {
		cfg := DefaultConfig()
		cfg.Retention = uint64(retention)
		c := New(cfg)
		block := func() {
			for i := 0; i < perBlock; i++ {
				if _, err := c.Submit(&Tx{From: "a", To: "b", Data: []byte{1, 2, 3}}); err != nil {
					t.Fatal(err)
				}
				c.Emit("ev", nil)
			}
			c.MineBlock()
		}
		// Fill the window, then run long enough for the event log's array to
		// reach the size it keeps (twice the window).
		for n := 0; n < 4*retention; n++ {
			block()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < measured; n++ {
			block()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / measured
	}
	small, large := bytesPerBlock(8), bytesPerBlock(512)
	t.Logf("bytes allocated per block of %d transactions and events: %.0f at Retention 8, %.0f at Retention 512", perBlock, small, large)
	if large > 1.1*small || small > 1.1*large {
		t.Fatalf("a block allocates %.0f B at Retention 8 and %.0f B at Retention 512: the cost of a block depends on the window", small, large)
	}
}

// TestGasFiguresByCalldataShape pins what Submit charges and what MineBlock
// seals for the calldata shapes the system posts. The block's figure is the
// one Submit metered; it must equal the sum a second walk of the calldata
// would give, which is how it was computed before.
func TestGasFiguresByCalldataShape(t *testing.T) {
	mixed := make([]byte, 288) // a private proof: bytes 0 and 256 are zero
	for i := range mixed {
		mixed[i] = byte(i)
	}
	key := make([]byte, 2048) // a stored key: 8 zero bytes
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	g := DefaultGasSchedule()
	cases := []struct {
		name string
		tx   *Tx
		gas  uint64
	}{
		{"empty", &Tx{From: "a", To: "b"}, 21_000},
		{"all-zero", &Tx{From: "a", To: "b", Data: make([]byte, 48)}, 21_000 + 48*4},
		{"288 mixed bytes", &Tx{From: "a", To: "b", Data: mixed, ExtraGas: 563_000}, 21_000 + 2*4 + 286*16 + 563_000},
		{"2 KiB key", &Tx{From: "a", To: "b", Data: key, ExtraGas: g.StorageGas(len(key))}, 21_000 + 8*4 + 2040*16 + 64*20_000},
	}
	c := New(DefaultConfig())
	var sum uint64
	var size int
	for _, tc := range cases {
		rcpt, err := c.Submit(tc.tx)
		if err != nil {
			t.Fatal(err)
		}
		if rcpt.GasUsed != tc.gas || rcpt.DataSize != len(tc.tx.Data) {
			t.Fatalf("%s: receipt %+v, want gas %d over %d bytes", tc.name, *rcpt, tc.gas, len(tc.tx.Data))
		}
		if blk := c.MineBlock(); blk.GasUsed != tc.gas || blk.ByteSize != 110+len(tc.tx.Data) {
			t.Fatalf("%s: alone in a block it seals %d gas, %d bytes; want %d, %d", tc.name, blk.GasUsed, blk.ByteSize, tc.gas, 110+len(tc.tx.Data))
		}
		sum += tc.gas
		size += 110 + len(tc.tx.Data)
	}
	for _, tc := range cases {
		if _, err := c.Submit(tc.tx); err != nil {
			t.Fatal(err)
		}
	}
	if blk := c.MineBlock(); blk.GasUsed != sum || blk.ByteSize != size || len(blk.Txs) != len(cases) {
		t.Fatalf("all four in one block seal %d gas, %d bytes, %d txs; want %d, %d, %d", blk.GasUsed, blk.ByteSize, len(blk.Txs), sum, size, len(cases))
	}
	if c.TotalGas() != 2*sum || c.TotalBytes() != 2*size {
		t.Fatalf("totals %d gas, %d bytes; want %d, %d", c.TotalGas(), c.TotalBytes(), 2*sum, 2*size)
	}
}
