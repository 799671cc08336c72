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
// The flow mirrors Fig. 2 with a two-phase submit/settle round: EngageWith
// (negotiate/ack/freeze) then repeated audit rounds where the proof is
// first submitted cheaply (calldata only) and the verdict — payment or
// slashing — settles at block inclusion. sched.Scheduler (package
// dsnaudit/sched) is the one driver, built for the paper's deployment shape
// (Section III-B: many owners x many providers on one chain): it mines the
// blocks, wakes each engagement at its trigger height, fans proof
// generation out to a prove-worker pool, and settles each sealed block
// through the pluggable Verifier defined here — by default BatchVerifier,
// one batched pairing check sharing a single final exponentiation across
// the block (Section VII-D), isolating cheaters on failure. This package
// holds what the scheduler drives: Engagement, the Result/Outcome
// accounting keyed by Engagement.ID (the contract address), the Verifier
// interface and the sentinel errors. Owner.EngageShares deploys one
// contract per share so a k-of-(k+m) erasure-coded file is audited on every
// holder at once.
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
