package dsnaudit

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/storage"
)

// Responder produces audit proofs for open challenges. ProviderNode is the
// in-process implementation; the interface exists so the Scheduler (and any
// other driver) can talk to a remote provider, a latency simulator, or a
// fault injector without knowing the difference.
type Responder interface {
	// Respond answers an open challenge on the given contract with a
	// marshaled privacy-assured proof. Implementations must honor ctx
	// cancellation.
	Respond(ctx context.Context, contractAddr chain.Address, ch *core.Challenge) ([]byte, error)
}

// ProviderTransport is the full provider-facing surface an engagement
// needs: the audit-data handoff at initialization plus a Responder for
// every subsequent round. ProviderNode implements it in-process;
// dsnaudit/remote.Client implements it over TCP for a provider running in
// another OS process. Transport-level failures must surface as (wrapped)
// ErrProviderUnreachable / ErrResponseTimeout / ErrBadFrame so drivers can
// map them onto the missed-round path.
type ProviderTransport interface {
	Responder
	// AcceptAuditData delivers the owner's audit state for a contract and
	// returns the provider's accept/reject verdict.
	AcceptAuditData(ctx context.Context, contractAddr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error
}

// ShareFetcher retrieves stored erasure shares from a provider; the repair
// manager uses it to collect surviving shares for reconstruction.
type ShareFetcher interface {
	// FetchShare returns the share stored under key, or a wrapped
	// ErrShareUnavailable if the provider holds nothing for it.
	FetchShare(ctx context.Context, key string) ([]byte, error)
}

// SharePlacer stores an erasure share on a provider; the repair manager
// uses it to re-place a reconstructed share onto a replacement holder.
type SharePlacer interface {
	PutShare(ctx context.Context, key string, data []byte) error
}

// RepairPeer is the full surface the repair subsystem needs from a holder:
// the audit transport for re-engagement plus share fetch and placement.
// ProviderNode implements it in-process; dsnaudit/remote.Client implements
// it against a provider in another OS process.
type RepairPeer interface {
	ProviderTransport
	ShareFetcher
	SharePlacer
}

// ProverStore is where a provider node keeps per-contract audit state. The
// default is an in-memory map; a spill-backed store (the one dsnaudit/sched's
// soak uses) keeps only a hydration window of provers resident and reads
// the rest back from disk, which is what bounds a node's memory at planetary
// engagement counts. Implementations must be safe for concurrent use.
//
// Audit state is immutable once put: a store never writes a prover back,
// and GetProver may return the prover that was put or a fresh decode of it,
// so a change made to a returned prover lasts only while the store keeps
// that copy. To change a contract's state for good, put it again.
type ProverStore interface {
	// PutProver installs (or replaces) the audit state for a contract.
	PutProver(contractAddr chain.Address, p *core.Prover) error
	// GetProver returns the audit state for a contract; ok is false when
	// the store has no state for it. A non-nil error means the store could
	// not answer (e.g. a spill record failed its integrity check) — a
	// different condition from "never held it".
	GetProver(contractAddr chain.Address) (*core.Prover, bool, error)
	// DeleteProver discards the audit state for a contract; deleting an
	// absent contract is a no-op.
	DeleteProver(contractAddr chain.Address) error
}

// mapProverStore is the default ProverStore: everything resident, no spill.
type mapProverStore struct {
	mu      sync.RWMutex
	provers map[chain.Address]*core.Prover
}

func newMapProverStore() *mapProverStore {
	return &mapProverStore{provers: make(map[chain.Address]*core.Prover)}
}

func (s *mapProverStore) PutProver(addr chain.Address, p *core.Prover) error {
	s.mu.Lock()
	s.provers[addr] = p
	s.mu.Unlock()
	return nil
}

func (s *mapProverStore) GetProver(addr chain.Address) (*core.Prover, bool, error) {
	s.mu.RLock()
	p, ok := s.provers[addr]
	s.mu.RUnlock()
	return p, ok, nil
}

func (s *mapProverStore) DeleteProver(addr chain.Address) error {
	s.mu.Lock()
	delete(s.provers, addr)
	s.mu.Unlock()
	return nil
}

// ProviderNode is a storage provider: blob store plus audit responders.
// Its audit-state methods are safe for concurrent use, so one provider can
// serve many simultaneous engagements.
type ProviderNode struct {
	Name    string
	Store   *storage.Provider
	DHTNode *dht.Node

	// Workers bounds the goroutines each proof's multi-scalar
	// multiplications use; 0 selects GOMAXPROCS. Proof bytes are identical
	// at any setting.
	Workers int

	// ProofEntropy optionally overrides the randomness source blinding the
	// private proofs (nil = crypto/rand). A deterministic reader makes
	// proof bytes reproducible — the remote-parity integration tests rely
	// on that to pin byte-identical on-chain outcomes across transports.
	// Deployments must leave it nil: predictable blinding voids the
	// on-chain privacy guarantee.
	ProofEntropy io.Reader

	network *Network

	provers ProverStore
}

var _ RepairPeer = (*ProviderNode)(nil)

// NewProviderNode creates a standalone provider: a blob store plus audit
// responders with no simulation network attached. It is the node a remote
// server (dsnaudit/remote) exposes from its own OS process — the audit
// state arrives over the wire via AcceptAuditData, and the node never
// touches a chain or reputation ledger itself. Providers participating in
// an in-process simulation come from Network.AddProvider instead.
func NewProviderNode(name string) *ProviderNode {
	return &ProviderNode{
		Name:    name,
		Store:   storage.NewProvider(name),
		provers: newMapProverStore(),
	}
}

// SetProverStore swaps the node's audit-state store, e.g. for a spill-backed
// store that bounds resident memory. It must be called before any audit
// state is installed: existing state is not migrated.
func (p *ProviderNode) SetProverStore(s ProverStore) {
	if s == nil {
		s = newMapProverStore()
	}
	p.provers = s
}

// Address returns the provider's chain account.
func (p *ProviderNode) Address() chain.Address { return chain.Address(p.Name) }

// AcceptAuditData is the provider's side of contract initialization: it
// validates a sample of authenticators against the public key (catching a
// cheating owner, Section VI-A) and, on success, retains the audit state.
// sampleSize chunks are checked, spread evenly over the file; a sampleSize
// at or above the chunk count validates every authenticator. The sample is
// checked in one randomly weighted pairing equation
// (core.VerifyAuthenticators): two Miller loops whatever its size, and a
// sample with any bad authenticator is accepted with probability at most
// 2^-128. ctx is checked before the validation starts.
func (p *ProviderNode) AcceptAuditData(ctx context.Context, contractAddr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sample := sampleIndices(ef.NumChunks(), sampleSize)
	if err := core.VerifyAuthenticators(pk, ef, auths, sample); err != nil {
		return fmt.Errorf("%w: provider %s: %w", ErrRejectedAuditData, p.Name, err)
	}
	// Retain an independent replica: many providers may hold audit state
	// for the same file, and corruption at one must stay local.
	prover, err := core.NewProver(pk, ef.Clone(), core.CloneAuthenticators(auths))
	if err != nil {
		return err
	}
	prover.Workers = p.Workers
	return p.provers.PutProver(contractAddr, prover)
}

// InstallAuditState stores audit state without the authenticator-sample
// validation AcceptAuditData performs and without cloning the inputs. It
// exists for scale harnesses (the soak experiment installs 100k+ states and
// cannot afford a pairing check per engagement) and for re-installing state
// that was validated before (fault injection against a paging store). Real
// engagements go through AcceptAuditData.
func (p *ProviderNode) InstallAuditState(contractAddr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator) error {
	prover, err := core.NewProver(pk, ef, auths)
	if err != nil {
		return err
	}
	prover.Workers = p.Workers
	return p.provers.PutProver(contractAddr, prover)
}

// DropAuditState discards the audit state for a contract — the cleanup a
// provider performs when an engagement reaches a terminal state and the
// contract can never be challenged again.
func (p *ProviderNode) DropAuditState(contractAddr chain.Address) error {
	return p.provers.DeleteProver(contractAddr)
}

// sampleIndices spreads sampleSize distinct indices evenly over [0, n).
// sampleSize is clamped to [1, n], so small files are fully validated
// rather than under-sampled.
func sampleIndices(n, sampleSize int) []int {
	if sampleSize < 1 {
		sampleSize = 1
	}
	if sampleSize > n {
		sampleSize = n
	}
	sample := make([]int, sampleSize)
	for j := range sample {
		sample[j] = j * n / sampleSize
	}
	return sample
}

// Respond answers an open challenge on the given contract with a
// privacy-assured proof. It returns ErrNoAuditState if the provider never
// accepted audit data for the contract, and ctx.Err() if the context dies
// before — or during — proving: the proof pipeline polls ctx between and
// inside its multi-scalar multiplication stages, so a canceled caller (a
// disconnected remote peer, a torn-down scheduler) stops the CPU burn
// mid-proof instead of completing a proof nobody will collect.
func (p *ProviderNode) Respond(ctx context.Context, contractAddr chain.Address, ch *core.Challenge) ([]byte, error) {
	prover, ok, err := p.provers.GetProver(contractAddr)
	if err != nil {
		return nil, fmt.Errorf("provider %s, contract %s: %w", p.Name, contractAddr, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: provider %s, contract %s", ErrNoAuditState, p.Name, contractAddr)
	}
	proof, err := prover.ProvePrivateCtx(ctx, ch, nil, p.ProofEntropy)
	if err != nil {
		return nil, err
	}
	return proof.Marshal()
}

// FetchShare serves a stored erasure share from the provider's blob store.
func (p *ProviderNode) FetchShare(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := p.Store.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: provider %s, key %s", ErrShareUnavailable, p.Name, key)
	}
	return data, nil
}

// PutShare stores an erasure share in the provider's blob store.
func (p *ProviderNode) PutShare(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.Store.Put(key, data)
	return nil
}

// Prover exposes the provider's audit state for a contract (experiments
// need it to inject corruption). A store that fails to answer (e.g. a
// corrupt spill record) reads as "no state". Corrupting the prover's File
// in place sticks with the default map store; a paging store may hand out a
// fresh decode next time (see ProverStore), so fault injection meant to
// outlive residency re-installs the corrupted state (InstallAuditState).
func (p *ProviderNode) Prover(contractAddr chain.Address) (*core.Prover, bool) {
	pr, ok, err := p.provers.GetProver(contractAddr)
	if err != nil {
		return nil, false
	}
	return pr, ok
}
