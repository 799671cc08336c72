package dsnaudit

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dht"
	"repro/internal/reputation"
	"repro/internal/storage"
)

// Network is the shared simulation substrate.
type Network struct {
	Chain      *chain.Chain
	Ring       *dht.Ring
	Beacon     contract.RandomnessSource
	Reputation *reputation.Ledger

	verifyGas uint64

	mu        sync.RWMutex
	providers map[string]*ProviderNode
}

// NetworkOption customizes NewNetwork.
type NetworkOption func(*Network)

// WithBeacon overrides the default trusted beacon (e.g. with a
// commit-reveal beacon or a fixed-seed beacon for reproducible runs).
func WithBeacon(b contract.RandomnessSource) NetworkOption {
	return func(n *Network) { n.Beacon = b }
}

// WithChainConfig replaces the default chain parameters — scale harnesses
// raise the block gas limit (so bursts of setup transactions fit) and set a
// retention window (so a long soak does not hold every block body in
// memory).
func WithChainConfig(cfg chain.Config) NetworkOption {
	return func(n *Network) { n.Chain = chain.New(cfg) }
}

// NewNetwork creates a simulation with default Ethereum-like parameters and
// the paper's Fig. 5 verification gas.
func NewNetwork(opts ...NetworkOption) (*Network, error) {
	trusted, err := beacon.NewTrusted(nil)
	if err != nil {
		return nil, err
	}
	gasModel := cost.PaperGasModel()
	n := &Network{
		Chain:      chain.New(chain.DefaultConfig()),
		Ring:       dht.NewRing(),
		Beacon:     trusted,
		Reputation: reputation.NewLedger(),
		verifyGas:  gasModel.AuditGas(core.PrivateProofSize, 7200*1000) - 21000 - 288*16,
		providers:  make(map[string]*ProviderNode),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n, nil
}

// AddProvider creates a storage provider, joins it to the DHT and funds its
// account so it can post deposits. Adding a name twice returns
// ErrDuplicateProvider.
func (n *Network) AddProvider(name string, funds *big.Int) (*ProviderNode, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.providers[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateProvider, name)
	}
	node, err := n.Ring.Join(name)
	if err != nil {
		return nil, err
	}
	p := &ProviderNode{
		Name:    name,
		Store:   storage.NewProvider(name),
		DHTNode: node,
		network: n,
		provers: newMapProverStore(),
	}
	n.providers[name] = p
	n.Chain.Fund(chain.Address(name), funds)
	return p, nil
}

// AdoptEngagement wraps an already-deployed audit contract as an Engagement
// bound to this network, bypassing the Engage negotiation. Scale harnesses
// use it to drive contracts they deployed and initialized by hand (the soak
// experiment deploys 100k of them); the responder defaults to the provider
// node itself when t is nil. The caller is responsible for the contract
// being in a schedulable state (acknowledged and frozen). Rounds the contract
// settled before adoption count as already observed into reputation.
func (n *Network) AdoptEngagement(k *contract.Contract, o *Owner, p *ProviderNode, t Responder) *Engagement {
	if t == nil {
		t = p
	}
	return &Engagement{Contract: k, Owner: o, Provider: p, Responder: t, ShareIndex: -1, network: n, observed: len(k.Records())}
}

// Provider returns a registered provider by name.
func (n *Network) Provider(name string) (*ProviderNode, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.providers[name]
	return p, ok
}

// LocateProviders returns `count` distinct providers responsible for the
// given object key on the DHT ring (the paper's provider-candidate lookup),
// re-ranked by reputation so slashed providers sink to the bottom (the
// Section VI-A countermeasure).
func (n *Network) LocateProviders(objectKey string, count int) ([]*ProviderNode, error) {
	nodes, err := n.Ring.Providers(dht.HashString(objectKey), count)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	names := make([]string, len(nodes))
	for i, node := range nodes {
		if _, ok := n.providers[node.Addr]; !ok {
			return nil, fmt.Errorf("%w: DHT node %q", ErrUnknownProvider, node.Addr)
		}
		names[i] = node.Addr
	}
	names = n.Reputation.Rank(names)
	out := make([]*ProviderNode, len(names))
	for i, name := range names {
		out[i] = n.providers[name]
	}
	return out, nil
}

// LocateReplacement ranks candidate providers for re-placing a lost share:
// every ring member responsible for the object key (the whole ring, since a
// replacement must be found even under heavy churn), minus the excluded
// names — the failed holder and the file's surviving holders — ordered by
// descending reputation. The repair manager walks the list until one
// candidate accepts the share and the re-engagement.
func (n *Network) LocateReplacement(objectKey string, exclude map[string]bool) ([]*ProviderNode, error) {
	nodes, err := n.Ring.Providers(dht.HashString(objectKey), n.Ring.Size())
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	names := make([]string, 0, len(nodes))
	for _, node := range nodes {
		if exclude[node.Addr] {
			continue
		}
		if _, ok := n.providers[node.Addr]; !ok {
			continue // a ring member that is not a simulated provider
		}
		names = append(names, node.Addr)
	}
	n.mu.RUnlock()
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: for %s", ErrNoReplacement, objectKey)
	}
	names = n.Reputation.Rank(names)
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*ProviderNode, len(names))
	for i, name := range names {
		out[i] = n.providers[name]
	}
	return out, nil
}
