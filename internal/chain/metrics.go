package chain

import "repro/internal/obs"

// Instrument registers the dsn_chain_* metric family on reg, func-backed
// over the chain's existing accessors so the hot paths stay untouched.
// The crash matrix's no-rescan pin reads dsn_chain_history_reads_total. A
// nil registry is a no-op.
func (c *Chain) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("dsn_chain_height", "current block height",
		func() float64 { return float64(c.Height()) })
	reg.GaugeFunc("dsn_chain_pending", "transactions waiting for the next block",
		func() float64 { return float64(c.PendingCount()) })
	reg.CounterFunc("dsn_chain_history_reads_total", "bulk history snapshots served (Events, Blocks)",
		func() float64 { return float64(c.historyReadCount()) })
	reg.CounterFunc("dsn_chain_gas_total", "cumulative gas charged across all mined transactions",
		func() float64 { return float64(c.TotalGas()) })
	reg.CounterFunc("dsn_chain_bytes_total", "cumulative calldata bytes across all mined transactions",
		func() float64 { return float64(c.TotalBytes()) })
	reg.CounterFunc("dsn_chain_pruned_blocks_total", "blocks dropped by history pruning",
		func() float64 { return float64(c.prunedBlockCount()) })
}
