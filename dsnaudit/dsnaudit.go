// Package dsnaudit is the public API of this reproduction of "Towards
// Privacy-assured and Lightweight On-chain Auditing of Decentralized
// Storage" (Du et al., ICDCS 2020).
//
// It ties the internal subsystems into the three roles of the paper's
// Section III-B:
//
//   - Owner: the data owner D. Generates keys, encrypts and erasure-codes
//     data for the storage plane, computes homomorphic authenticators, and
//     engages storage providers through on-chain audit contracts.
//   - ProviderNode: the storage provider S. Stores shares, answers audit
//     challenges with 288-byte privacy-assured proofs.
//   - Network: the substrate both share -- the simulated blockchain
//     (contract execution, deposits, gas), the randomness beacon, and the
//     Chord DHT used to locate providers.
//
// The flow mirrors Fig. 2 with a two-phase submit/settle round: Engage
// (negotiate/ack/freeze) then repeated audit rounds where the proof is
// first submitted cheaply (calldata only) and the verdict — payment or
// slashing — settles at block inclusion. Two drivers are provided:
//
//   - Engagement.RunRound / RunAll: the sequential driver, one engagement
//     at a time, mining the shared chain itself. Good for demos and
//     single-contract flows.
//   - sched.Scheduler (package dsnaudit/sched): the concurrent driver for
//     the paper's real deployment shape (Section III-B: many owners x many
//     providers on one chain). It mines the blocks, wakes every
//     registered engagement at its trigger height, and runs a two-stage
//     pipeline: proof generation fans out to a prove-worker pool, and each
//     sealed block's proofs settle on a dedicated settlement stage through
//     the pluggable Verifier defined here — by default BatchVerifier, one
//     batched pairing check sharing a single final exponentiation across
//     the whole block (Section VII-D), with bisection isolating cheaters.
//     This package holds what both drivers share: Engagement, the
//     Result/Outcome accounting keyed by Engagement.ID (the contract
//     address), the Verifier strategies and the sentinel errors.
//     Owner.EngageAll deploys one contract per share holder so a
//     k-of-(k+m) erasure-coded file is audited on every holder at once.
//
// All audit-path entry points take a context.Context for cancellation and
// deadlines, failures surface as the sentinel errors in errors.go, and the
// Responder interface decouples proof production from in-process providers
// so remote or latency-simulating transports can be slotted in.
//
// Lower-level access to every piece (the pairing library, the PDP scheme,
// the attack tooling) lives in the internal packages; this package is the
// stable surface.
package dsnaudit

import "repro/internal/core"

// Re-exported sizes (bytes) for documentation and assertions.
const (
	ProofSize        = core.ProofSize        // 96: non-private (sigma, y, psi)
	PrivateProofSize = core.PrivateProofSize // 288: privacy-assured (sigma, y', psi, R)
	ChallengeSize    = 48                    // C1 || C2 || r
)
