// Package chain simulates the Ethereum-like blockchain the paper uses as
// its auditing backbone: accounts with balances, transactions with
// Istanbul-calibrated gas metering, sequential blocks with a gas limit and
// logical timestamps, escrow (deposit locking) for contract fairness, and
// an event log.
//
// It replaces the paper's private geth testnet with customized pre-compiled
// contracts (Section VII-A). Contract logic runs as native Go (mirroring
// the paper's own pre-compiled-opcode approach); the chain supplies the
// economics: every byte posted and every verification performed is charged
// gas, so the on-chain cost experiments (Figs. 4-6, 10) run against the
// same cost model Ethereum would apply.
package chain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"
)

// GasSchedule holds the gas constants, defaulting to Ethereum Istanbul
// (the fork current in Apr 2020, the paper's price snapshot).
type GasSchedule struct {
	TxBase          uint64 // intrinsic gas per transaction
	CalldataZero    uint64 // per zero byte of calldata
	CalldataNonZero uint64 // per non-zero byte of calldata
	StorageWord     uint64 // SSTORE of a fresh 32-byte word
	LogBase         uint64 // LOG0 base
	LogByte         uint64 // per byte of log data
}

// defaultGasSchedule returns the Istanbul constants.
func defaultGasSchedule() GasSchedule {
	return GasSchedule{
		TxBase:          21000,
		CalldataZero:    4,
		CalldataNonZero: 16,
		StorageWord:     20000,
		LogBase:         375,
		LogByte:         8,
	}
}

// calldataGas returns the calldata portion of a transaction's gas.
func (g GasSchedule) calldataGas(data []byte) uint64 {
	zeros := uint64(bytes.Count(data, []byte{0}))
	return zeros*g.CalldataZero + (uint64(len(data))-zeros)*g.CalldataNonZero
}

// StorageGas returns the cost of persisting n bytes of contract storage.
func (g GasSchedule) StorageGas(n int) uint64 {
	words := (n + 31) / 32
	return uint64(words) * g.StorageWord
}

// Config fixes the simulated network parameters.
type Config struct {
	Gas           GasSchedule
	BlockGasLimit uint64
	BlockInterval time.Duration // logical inter-block time
	GenesisTime   time.Time

	// Retention bounds how many recent blocks keep their bodies (and how far
	// back the event log reaches). 0 — the default — retains everything, the
	// behavior every existing experiment depends on. A long-running
	// simulation (a 100k-engagement soak mines a transaction stream no real
	// node would hold in memory either) sets it to a window; cumulative
	// TotalBytes/TotalGas accounting is unaffected because it is maintained
	// as running totals, exactly like a pruned full node keeps chain-level
	// aggregates without the bodies.
	Retention uint64
}

// DefaultConfig mirrors Ethereum mainnet around Apr 2020: 10M block gas
// limit, ~13s blocks.
func DefaultConfig() Config {
	return Config{
		Gas:           defaultGasSchedule(),
		BlockGasLimit: 10_000_000,
		BlockInterval: 13 * time.Second,
		GenesisTime:   time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Address identifies an account. Human-readable labels keep traces legible.
type Address string

// Tx is one submitted transaction.
type Tx struct {
	From     Address
	To       Address
	Value    *big.Int
	Data     []byte
	ExtraGas uint64 // execution gas beyond intrinsic+calldata (e.g. verification)
	Note     string
}

// Receipt reports the outcome of a submitted transaction. Block is the next
// block; later if that block is full.
type Receipt struct {
	TxIndex  int
	Block    uint64
	GasUsed  uint64
	DataSize int
}

// Event is an emitted contract event ("broadcast" in Fig. 2).
type Event struct {
	Block uint64
	Name  string
	Data  []byte
}

// Block is one sealed block.
type Block struct {
	Number   uint64
	Time     time.Time
	GasUsed  uint64
	Txs      []*Tx
	ByteSize int
}

// Chain is the simulated ledger and the single mining authority of the
// simulation: every block is sealed through MineBlock, whose caller is the
// block clock. All methods are safe for concurrent use.
type Chain struct {
	mu        sync.Mutex
	cfg       Config
	balances  map[Address]*big.Int
	locked    map[Address]*big.Int
	blocks    []*Block
	pending   []pendingTx
	events    []Event // events[eventHead:] is the log; the prefix is pruned and cleared
	eventHead int
	txCount   int
	contents  map[string][32]byte // content-addressed state, by value: its SHA-256 digest (SubmitReferencing)

	// Running aggregates over every sealed block, pruned or not.
	totalBytes   int
	totalGas     uint64
	prunedBlocks uint64

	// historyReads counts bulk history snapshots (Events, Blocks) — the
	// expensive "rescan the chain" accesses. Recovery tests pin this at
	// zero across sched.Recover to prove a restart never rescans.
	historyReads uint64

	log *Log // the chain's history on disk, if any (log.go)
}

// pendingTx is a queued transaction with the gas SubmitOp metered for it.
type pendingTx struct {
	tx  *Tx
	gas uint64
}

// Errors surfaced by ledger operations.
var (
	errInsufficientFunds = errors.New("chain: insufficient funds")
	errBlockGasExceeded  = errors.New("chain: transaction exceeds block gas limit")
)

// New returns a fresh chain with only the genesis block.
func New(cfg Config) *Chain {
	c := &Chain{
		cfg:      cfg,
		balances: make(map[Address]*big.Int),
		locked:   make(map[Address]*big.Int),
		contents: make(map[string][32]byte),
	}
	c.blocks = append(c.blocks, &Block{Number: 0, Time: cfg.GenesisTime})
	return c
}

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Fund credits an account (test/genesis allocation).
func (c *Chain) Fund(a Address, amount *big.Int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.creditLocked(a, amount)
}

func (c *Chain) creditLocked(a Address, amount *big.Int) {
	if b, ok := c.balances[a]; ok {
		b.Add(b, amount)
	} else {
		c.balances[a] = new(big.Int).Set(amount)
	}
}

// Balance returns the spendable balance of a.
func (c *Chain) Balance(a Address) *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.balances[a]; ok {
		return new(big.Int).Set(b)
	}
	return new(big.Int)
}

// LockedBalance returns a's escrowed funds.
func (c *Chain) LockedBalance(a Address) *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.locked[a]; ok {
		return new(big.Int).Set(b)
	}
	return new(big.Int)
}

func (c *Chain) transferLocked(from, to Address, amount *big.Int) error {
	if amount.Sign() < 0 {
		return fmt.Errorf("chain: negative transfer")
	}
	b, ok := c.balances[from]
	if !ok || b.Cmp(amount) < 0 {
		return fmt.Errorf("%w: %s has %v, needs %v", errInsufficientFunds, from, b, amount)
	}
	b.Sub(b, amount)
	c.creditLocked(to, amount)
	return nil
}

// Lock escrows amount from a's balance (the Fig. 2 "freeze" deposits).
func (c *Chain) Lock(a Address, amount *big.Int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.balances[a]
	if !ok || b.Cmp(amount) < 0 {
		return fmt.Errorf("%w: cannot lock %v for %s", errInsufficientFunds, amount, a)
	}
	b.Sub(b, amount)
	if l, ok := c.locked[a]; ok {
		l.Add(l, amount)
	} else {
		c.locked[a] = new(big.Int).Set(amount)
	}
	return nil
}

// Unlock releases amount of a's escrow to recipient ("unlock and transact
// $ to ..." in Fig. 2).
func (c *Chain) Unlock(a Address, amount *big.Int, recipient Address) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.locked[a]
	if !ok || l.Cmp(amount) < 0 {
		return fmt.Errorf("%w: cannot unlock %v of %s", errInsufficientFunds, amount, a)
	}
	l.Sub(l, amount)
	c.creditLocked(recipient, amount)
	return nil
}

// SubmitOp queues a transaction and returns its gas cost breakdown. The
// transaction is included in the next mined block; gas is metered now so
// callers can account costs deterministically. op is the contract call's
// log record: a chain that keeps a log writes it in the same step as it
// queues tx. A nil op logs nothing.
func (c *Chain) SubmitOp(tx *Tx, op []byte) (*Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gas, err := c.submitLocked(tx)
	if err != nil {
		return nil, err
	}
	if op != nil {
		if err := c.logOpLocked(op, nil); err != nil {
			return nil, err
		}
	}
	return &Receipt{
		TxIndex:  c.txCount - 1,
		Block:    c.nextHeightLocked(),
		GasUsed:  gas,
		DataSize: len(tx.Data),
	}, nil
}

// SubmitReferencing is SubmitOp for a transaction that references content the
// chain keeps as content-addressed state, once per chain. The chain puts the
// SHA-256 digest of content in front of tx's data and, when it does not yet
// hold content, content itself in front of that, adding content's storage to
// tx's gas; fresh reports the latter. The lookup, the submission and the
// record are one step under the chain's lock, so of concurrent callers with
// one content exactly one posts it, and a submission that fails records
// nothing, as a reverted transaction writes no state. The chain looks content
// up by value, so what it holds is not hashed again. It takes tx over, as
// SubmitOp does, and rewrites its data and gas. op is logged as by SubmitOp.
func (c *Chain) SubmitReferencing(content []byte, tx *Tx, op []byte) (fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	digest, held := c.contents[string(content)]
	var data []byte
	if held {
		data = make([]byte, 0, len(digest)+len(tx.Data))
	} else {
		digest = sha256.Sum256(content)
		data = append(make([]byte, 0, len(content)+len(digest)+len(tx.Data)), content...)
		tx.ExtraGas += c.cfg.Gas.StorageGas(len(content))
	}
	tx.Data = append(append(data, digest[:]...), tx.Data...)
	if _, err := c.submitLocked(tx); err != nil {
		return false, err
	}
	if !held {
		c.contents[string(content)] = digest
	}
	if op != nil {
		if err := c.logOpLocked(op, nil); err != nil {
			return false, err
		}
	}
	return !held, nil
}

// submitLocked meters tx and queues it, returning its gas.
func (c *Chain) submitLocked(tx *Tx) (uint64, error) {
	if err := c.logFault(); err != nil {
		return 0, err
	}
	gas := c.cfg.Gas.TxBase + c.cfg.Gas.calldataGas(tx.Data) + tx.ExtraGas
	if gas > c.cfg.BlockGasLimit {
		return 0, fmt.Errorf("%w: %d > %d", errBlockGasExceeded, gas, c.cfg.BlockGasLimit)
	}
	if tx.Value != nil && tx.Value.Sign() > 0 {
		if err := c.transferLocked(tx.From, tx.To, tx.Value); err != nil {
			return 0, err
		}
	}
	c.pending = append(c.pending, pendingTx{tx, gas})
	c.txCount++
	return gas, nil
}

// nextHeightLocked returns the number of the next block to be mined. It is
// head+1 rather than len(blocks): the two diverge once retention pruning
// drops old bodies.
func (c *Chain) nextHeightLocked() uint64 {
	return c.blocks[len(c.blocks)-1].Number + 1
}

// Emit appends a contract event.
func (c *Chain) Emit(name string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == cap(c.events) {
		c.makeEventRoomLocked()
	}
	c.events = append(c.events, Event{Block: c.nextHeightLocked(), Name: name, Data: data})
}

// makeEventRoomLocked runs when the log's array is full. Pruning only
// advances eventHead; the pruned prefix is reclaimed here, by moving the live
// part to the front of the same array when that frees at least half of it and
// otherwise into a new array of twice its length. Either way an event is
// moved O(1) times over its life, and a log whose window has stopped growing
// stops allocating.
func (c *Chain) makeEventRoomLocked() {
	live := c.events[c.eventHead:]
	if c.eventHead > 0 && len(live) <= c.eventHead {
		c.events = slideDown(c.events, c.eventHead)
	} else {
		c.events = append(make([]Event, 0, max(2*len(live), 64)), live...)
	}
	c.eventHead = 0
}

// Events returns a snapshot of all events.
func (c *Chain) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.historyReads++
	return append([]Event(nil), c.events[c.eventHead:]...)
}

// MineBlock seals all pending transactions into a new block, respecting the
// block gas limit (overflow spills into subsequent blocks).
func (c *Chain) MineBlock() *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.blocks[len(c.blocks)-1]
	blk := &Block{
		Number: prev.Number + 1,
		Time:   prev.Time.Add(c.cfg.BlockInterval),
	}
	var kept []pendingTx
	for i, p := range c.pending {
		if blk.GasUsed+p.gas > c.cfg.BlockGasLimit && len(blk.Txs) > 0 {
			kept = c.pending[i:]
			break
		}
		blk.GasUsed += p.gas
		blk.Txs = append(blk.Txs, p.tx)
		blk.ByteSize += txWireSize(p.tx)
	}
	c.pending = kept
	c.blocks = append(c.blocks, blk)
	c.totalBytes += blk.ByteSize
	c.totalGas += blk.GasUsed
	if c.log != nil {
		c.logSealLocked(blk)
	}
	c.pruneLocked()
	return blk
}

// pruneLocked drops block bodies and events older than the retention window.
// Aggregates (TotalBytes, TotalGas, Height) are unaffected; only the
// per-block and per-event history shrinks. Both arrays are pruned in place:
// no slice of either escapes the lock (Events and Blocks copy), and clearing
// the vacated slots is what makes the dropped blocks, their transactions and
// the event data collectible.
func (c *Chain) pruneLocked() {
	r := c.cfg.Retention
	if r == 0 || uint64(len(c.blocks)) <= r {
		return
	}
	drop := len(c.blocks) - int(r)
	c.blocks = slideDown(c.blocks, drop)
	c.prunedBlocks += uint64(drop)
	cutoff := c.blocks[0].Number
	live := c.events[c.eventHead:]
	i := sort.Search(len(live), func(i int) bool { return live[i].Block >= cutoff })
	// The log is window × events-per-block long, so a block only advances
	// its head; Emit moves the log when its array fills.
	clear(live[:i])
	c.eventHead += i
}

// slideDown drops s[:n] by moving the rest to the front of the same array and
// zeroing the slots that vacates.
func slideDown[T any](s []T, n int) []T {
	kept := copy(s, s[n:])
	clear(s[kept:])
	return s[:kept]
}

// txWireSize approximates a transaction's on-chain footprint: ~110 bytes of
// envelope (nonce, gas fields, signature, addresses) plus calldata.
func txWireSize(tx *Tx) int { return 110 + len(tx.Data) }

// Height returns the latest block number.
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1].Number
}

// TotalBytes returns the cumulative chain size in bytes (Fig. 10 left),
// including blocks pruned out of the retention window.
func (c *Chain) TotalBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBytes
}

// TotalGas returns cumulative gas used across all blocks, including blocks
// pruned out of the retention window.
func (c *Chain) TotalGas() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalGas
}

// Blocks returns a snapshot of the retained block headers (all blocks when
// Config.Retention is 0).
func (c *Chain) Blocks() []*Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.historyReads++
	return append([]*Block(nil), c.blocks...)
}

// historyReadCount returns how many bulk history snapshots (Events, Blocks)
// have been taken. A recovery path that claims "no rescan" proves it by
// showing this counter unchanged.
func (c *Chain) historyReadCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.historyReads
}

// prunedBlockCount returns how many old blocks the retention window has dropped.
func (c *Chain) prunedBlockCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prunedBlocks
}

// PendingCount returns the mempool depth.
func (c *Chain) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
