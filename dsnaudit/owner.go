package dsnaudit

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/storage"
)

// Owner is the data owner role.
type Owner struct {
	Name    string
	EncKey  []byte // AES-256 key for the mandatory client-side encryption
	AuditSK *core.PrivateKey

	network *Network
}

// NewOwner creates an owner with fresh encryption and audit keys (chunk
// size s) and funds its chain account.
func NewOwner(n *Network, name string, s int, funds *big.Int) (*Owner, error) {
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		return nil, err
	}
	key := make([]byte, storage.KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, err
	}
	n.Chain.Fund(chain.Address(name), funds)
	return &Owner{Name: name, EncKey: key, AuditSK: sk, network: n}, nil
}

// NewOwnerWithKeys creates an owner from existing keys and funds its chain
// account. It is the deterministic counterpart of NewOwner for restart
// paths: an operator resuming a crashed auditor reloads the persisted audit
// key and encryption key so the rebuilt owner is the same party — same
// addresses, same authenticators — as the crashed one.
func NewOwnerWithKeys(n *Network, name string, sk *core.PrivateKey, encKey []byte, funds *big.Int) (*Owner, error) {
	if sk == nil {
		return nil, fmt.Errorf("dsnaudit: owner %s: nil audit key", name)
	}
	if len(encKey) != storage.KeySize {
		return nil, fmt.Errorf("dsnaudit: owner %s: encryption key must be %d bytes, got %d", name, storage.KeySize, len(encKey))
	}
	n.Chain.Fund(chain.Address(name), funds)
	return &Owner{Name: name, EncKey: append([]byte(nil), encKey...), AuditSK: sk, network: n}, nil
}

// Address returns the owner's chain account.
func (o *Owner) Address() chain.Address { return chain.Address(o.Name) }

// Network returns the simulation network the owner participates in; the
// repair subsystem uses it to reach the reputation ledger and the DHT.
func (o *Owner) Network() *Network { return o.network }

// StoredFile is the owner's record of an outsourced file: the storage-plane
// manifest plus the audit-plane state.
//
// Two audit deployments exist. Outsource builds whole-blob audit state
// (Encoded/Auths over the sealed blob, replicated per engagement by
// EngageWith). OutsourceSharded builds per-share audit state instead
// (Shares), so each engagement audits exactly the erasure share its holder
// stores — the shape the repair subsystem reconstructs and re-engages.
type StoredFile struct {
	Manifest *storage.Manifest
	Sealed   []byte // the sealed blob (kept for test comparison; a real owner drops it)
	Encoded  *core.EncodedFile
	Auths    []*core.Authenticator
	Holders  []*ProviderNode
	Shares   []*ShareAudit // per-share audit state (sharded deployment only)
}

// ShareAudit is the audit state covering one erasure share: the chunk
// encoding and authenticators computed over the share's bytes.
type ShareAudit struct {
	Index   int
	Encoded *core.EncodedFile
	Auths   []*core.Authenticator
}

// Outsource runs the owner pipeline of Fig. 1 end to end: seal the data,
// erasure-code it k-of-(k+m), place the shares on DHT-selected providers,
// and prepare the audit state (chunk encoding + authenticators) over the
// sealed blob.
//
// The two planes share nothing but the owner's keys, so the storage plane
// (erasure coding, provider lookup, the share uploads) runs on its own
// goroutine beside the audit plane (seal, encode, Setup). Outsource returns
// only once both have finished; when both fail, it returns the storage
// plane's error, the one the serial order met first.
func (o *Owner) Outsource(name string, data []byte, k, m int) (*StoredFile, error) {
	var (
		man      *storage.Manifest
		holders  []*ProviderNode
		storeErr error
	)
	placed := make(chan struct{})
	go func() {
		defer close(placed)
		man, holders, storeErr = o.placeShares(name, data, k, m)
	}()
	sf, auditErr := o.prepareAudit(data)
	<-placed
	if storeErr != nil {
		return nil, storeErr
	}
	if auditErr != nil {
		return nil, auditErr
	}
	sf.Manifest, sf.Holders = man, holders
	return sf, nil
}

// placeShares is Outsource's storage plane: erasure-code the data, locate
// one provider per share and store each share on its holder.
func (o *Owner) placeShares(name string, data []byte, k, m int) (*storage.Manifest, []*ProviderNode, error) {
	man, shares, err := storage.Prepare(name, o.EncKey, data, k, m, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	holders, err := o.network.LocateProviders(name, len(shares))
	if err != nil {
		return nil, nil, err
	}
	for i, share := range shares {
		holders[i].Store.Put(man.ShareKeys[i], share)
	}
	return man, holders, nil
}

// prepareAudit is Outsource's audit plane. The authenticated object is the
// sealed blob, so the audit never sees plaintext (the paper's
// mandatory-encryption rule).
func (o *Owner) prepareAudit(data []byte) (*StoredFile, error) {
	sealed, err := storage.Seal(o.EncKey, data, rand.Reader)
	if err != nil {
		return nil, err
	}
	blob := sealed.Marshal()
	ef, err := core.EncodeFile(blob, o.AuditSK.Pub.S)
	if err != nil {
		return nil, err
	}
	auths, err := core.Setup(o.AuditSK, ef)
	if err != nil {
		return nil, err
	}
	return &StoredFile{Sealed: blob, Encoded: ef, Auths: auths}, nil
}

// OutsourceSharded runs the owner pipeline with per-share audit state:
// seal, erasure-code k-of-(k+m), place each share on a DHT-selected
// provider, and run Setup over every share's own bytes. Unlike Outsource —
// which audits a separately sealed full replica on every holder — each
// engagement here covers exactly what its holder stores, so a provider that
// drops its share cannot keep passing audits, and a lost share's audit
// state can be rebuilt from the reconstructed bytes alone (the property
// repair depends on).
func (o *Owner) OutsourceSharded(name string, data []byte, k, m int) (*StoredFile, error) {
	man, shares, err := storage.Prepare(name, o.EncKey, data, k, m, rand.Reader)
	if err != nil {
		return nil, err
	}
	holders, err := o.network.LocateProviders(name, len(shares))
	if err != nil {
		return nil, err
	}
	sf := &StoredFile{
		Manifest: man,
		Holders:  holders,
		Shares:   make([]*ShareAudit, len(shares)),
	}
	for i, share := range shares {
		holders[i].Store.Put(man.ShareKeys[i], share)
		sa, err := o.shareAudit(i, share)
		if err != nil {
			return nil, err
		}
		sf.Shares[i] = sa
	}
	return sf, nil
}

// shareAudit builds (or rebuilds, after reconstruction) the audit state for
// one share's bytes. Setup is deterministic given the owner's audit key, so
// a reconstructed share yields authenticators identical to the originals.
func (o *Owner) shareAudit(index int, share []byte) (*ShareAudit, error) {
	ef, err := core.EncodeFile(share, o.AuditSK.Pub.S)
	if err != nil {
		return nil, err
	}
	auths, err := core.Setup(o.AuditSK, ef)
	if err != nil {
		return nil, err
	}
	return &ShareAudit{Index: index, Encoded: ef, Auths: auths}, nil
}

// RebuildShareAudit recomputes and installs the audit state for one share
// slot from the share's bytes — the step that makes a reconstructed share
// re-engageable. Setup is deterministic given the owner's audit key, so the
// rebuilt authenticators are identical to the ones computed at outsourcing.
func (o *Owner) RebuildShareAudit(sf *StoredFile, index int, share []byte) error {
	if sf.Shares == nil || index < 0 || index >= len(sf.Shares) {
		return fmt.Errorf("dsnaudit: no share audit slot %d for %s", index, sf.Manifest.Name)
	}
	sa, err := o.shareAudit(index, share)
	if err != nil {
		return err
	}
	sf.Shares[index] = sa
	return nil
}

// Retrieve pulls shares back from the holders and reassembles the file,
// tolerating up to m lost or corrupted providers.
func (o *Owner) Retrieve(sf *StoredFile) ([]byte, error) {
	shares := make([][]byte, len(sf.Manifest.ShareKeys))
	for i, key := range sf.Manifest.ShareKeys {
		data, err := sf.Holders[i].Store.Get(key)
		if err != nil {
			continue // lost share: the erasure code absorbs it
		}
		shares[i] = data
	}
	return storage.Reassemble(sf.Manifest, o.EncKey, shares)
}
