// Package storage implements the data-plane of the decentralized storage
// network in the paper's Fig. 1: the data owner's preparation pipeline
// (mandatory client-side encryption, then erasure coding into shares) and
// the storage-provider nodes that hold shares and serve retrievals.
//
// Encryption before outsourcing is a protocol requirement, not an option
// (Section III-A: "the encryption is a mandatory action taken on the side
// of the data owner"): the auditing scheme's on-chain privacy analysis
// assumes ciphertext entropy.
package storage

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/erasure"
)

// KeySize is the AES-256 key size.
const KeySize = 32

// Errors returned by the storage layer.
var (
	errNotFound  = errors.New("storage: object not found")
	errCorrupted = errors.New("storage: integrity check failed")
)

// Sealed is an encrypted, authenticated blob ready for outsourcing.
type Sealed struct {
	Nonce [aes.BlockSize]byte
	Body  []byte // ciphertext
	Tag   [sha256.Size]byte
}

// Seal encrypts data under key with AES-256-CTR and authenticates it with
// HMAC-SHA256 (encrypt-then-MAC). rng may be nil for crypto/rand.
func Seal(key []byte, data []byte, rng io.Reader) (*Sealed, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("storage: key must be %d bytes, got %d", KeySize, len(key))
	}
	if rng == nil {
		rng = rand.Reader
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	s := &Sealed{Body: make([]byte, len(data))}
	if _, err := io.ReadFull(rng, s.Nonce[:]); err != nil {
		return nil, err
	}
	cipher.NewCTR(block, s.Nonce[:]).XORKeyStream(s.Body, data)
	mac := hmac.New(sha256.New, macKey(key))
	mac.Write(s.Nonce[:])
	mac.Write(s.Body)
	mac.Sum(s.Tag[:0])
	return s, nil
}

// open authenticates and decrypts a sealed blob.
func open(key []byte, s *Sealed) ([]byte, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("storage: key must be %d bytes, got %d", KeySize, len(key))
	}
	mac := hmac.New(sha256.New, macKey(key))
	mac.Write(s.Nonce[:])
	mac.Write(s.Body)
	if !hmac.Equal(mac.Sum(nil), s.Tag[:]) {
		return nil, errCorrupted
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(s.Body))
	cipher.NewCTR(block, s.Nonce[:]).XORKeyStream(out, s.Body)
	return out, nil
}

// macKey derives an independent MAC key from the encryption key.
func macKey(key []byte) []byte {
	h := sha256.Sum256(append([]byte("mac:"), key...))
	return h[:]
}

// Marshal flattens a sealed blob to bytes (nonce || tag || body).
func (s *Sealed) Marshal() []byte {
	out := make([]byte, 0, len(s.Nonce)+len(s.Tag)+len(s.Body))
	out = append(out, s.Nonce[:]...)
	out = append(out, s.Tag[:]...)
	out = append(out, s.Body...)
	return out
}

// unmarshalSealed parses a flattened sealed blob.
func unmarshalSealed(data []byte) (*Sealed, error) {
	if len(data) < aes.BlockSize+sha256.Size {
		return nil, errors.New("storage: sealed blob too short")
	}
	s := &Sealed{}
	copy(s.Nonce[:], data[:aes.BlockSize])
	copy(s.Tag[:], data[aes.BlockSize:aes.BlockSize+sha256.Size])
	s.Body = append([]byte(nil), data[aes.BlockSize+sha256.Size:]...)
	return s, nil
}

// Manifest records how a file was prepared: the share layout needed to
// reassemble it. The owner keeps it locally (or stores it as another
// object); the manifest never reveals plaintext.
type Manifest struct {
	Name        string
	K, M        int // erasure parameters: K data + M parity shares
	SealedSize  int // bytes of the sealed blob (pre-split)
	ShareKeys   []string
	ContentHash [sha256.Size]byte // hash of the sealed blob for end-to-end integrity
	ShareHashes [][]byte          // per-share SHA-256, indexed like ShareKeys; pins each share individually so a corrupted survivor is identified (not just detected) during repair
}

// VerifyShare checks share i's bytes against the manifest's per-share hash.
// Manifests predating share hashes (nil ShareHashes) verify nothing and
// return true; reconstruction then falls back on the whole-blob ContentHash.
func (m *Manifest) VerifyShare(i int, data []byte) bool {
	if m.ShareHashes == nil {
		return true
	}
	if i < 0 || i >= len(m.ShareHashes) {
		return false
	}
	h := sha256.Sum256(data)
	return bytes.Equal(h[:], m.ShareHashes[i])
}

// Prepare runs the full owner pipeline of Fig. 1 on plaintext data:
// seal (encrypt+MAC), then erasure-code into k+m shares. The returned
// shares are what goes to storage providers; the manifest is the owner's
// retrieval recipe.
func Prepare(name string, key, data []byte, k, m int, rng io.Reader) (*Manifest, [][]byte, error) {
	sealed, err := Seal(key, data, rng)
	if err != nil {
		return nil, nil, err
	}
	blob := sealed.Marshal()
	coder, err := erasure.NewCoder(k, m)
	if err != nil {
		return nil, nil, err
	}
	shares, err := coder.Split(blob)
	if err != nil {
		return nil, nil, err
	}
	man := &Manifest{
		Name:        name,
		K:           k,
		M:           m,
		SealedSize:  len(blob),
		ContentHash: sha256.Sum256(blob),
		ShareKeys:   make([]string, len(shares)),
		ShareHashes: make([][]byte, len(shares)),
	}
	for i := range shares {
		man.ShareKeys[i] = fmt.Sprintf("%s/share/%d", name, i)
		h := sha256.Sum256(shares[i])
		man.ShareHashes[i] = h[:]
	}
	return man, shares, nil
}

// Reassemble reverses Prepare from any K surviving shares (nil = lost).
func Reassemble(man *Manifest, key []byte, shares [][]byte) ([]byte, error) {
	coder, err := erasure.NewCoder(man.K, man.M)
	if err != nil {
		return nil, err
	}
	blob, err := coder.Join(shares, man.SealedSize)
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(blob) != man.ContentHash {
		return nil, errCorrupted
	}
	sealed, err := unmarshalSealed(blob)
	if err != nil {
		return nil, err
	}
	return open(key, sealed)
}

// Provider is an in-memory storage provider node. It exposes the faults the
// experiments need: silent corruption and data dropping, the misbehaviour
// catalogue of the paper's Section III-C.
type Provider struct {
	Name string

	mu      sync.RWMutex
	objects map[string][]byte
}

// NewProvider returns an empty provider node.
func NewProvider(name string) *Provider {
	return &Provider{Name: name, objects: make(map[string][]byte)}
}

// Put stores an object (copying the bytes).
func (p *Provider) Put(key string, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.objects[key] = append([]byte(nil), data...)
}

// Get retrieves an object (copying the bytes).
func (p *Provider) Get(key string) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	obj, ok := p.objects[key]
	if !ok {
		return nil, errNotFound
	}
	return append([]byte(nil), obj...), nil
}

// Drop deletes an object, modeling a provider reclaiming space
// ("it may simply drop the data to reclaim more storage").
func (p *Provider) Drop(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.objects[key]; !ok {
		return false
	}
	delete(p.objects, key)
	return true
}
