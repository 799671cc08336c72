package beacon

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

// hmacExpansion is Trusted's definition, computed with crypto/hmac: the first
// 48 bytes of HMAC-SHA256(root, round ‖ 0) ‖ HMAC-SHA256(root, round ‖ 1).
func hmacExpansion(root [32]byte, round int) []byte {
	var out []byte
	for blk := uint64(0); len(out) < SeedBytes; blk++ {
		mac := hmac.New(sha256.New, root[:])
		var msg [16]byte
		binary.BigEndian.PutUint64(msg[:8], uint64(round))
		binary.BigEndian.PutUint64(msg[8:], blk)
		mac.Write(msg[:])
		out = mac.Sum(out)
	}
	return out[:SeedBytes]
}

// TestTrustedMatchesHMAC: Randomness writes the HMAC out by hand over stack
// buffers; every challenge ever issued depends on it being the same function.
func TestTrustedMatchesHMAC(t *testing.T) {
	seeded, err := NewTrusted([]byte("soak"))
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewTrusted(nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := []int{math.MaxInt}
	for r := 0; r < 1000; r++ {
		rounds = append(rounds, r)
	}
	for _, b := range []*Trusted{seeded, random} {
		for _, r := range rounds {
			got, err := b.Randomness(r)
			if err != nil {
				t.Fatal(err)
			}
			if want := hmacExpansion(b.root, r); !bytes.Equal(got, want) {
				t.Fatalf("round %d: %x, want %x", r, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { seeded.Randomness(7) }); allocs > 1 {
		t.Fatalf("Randomness allocates %.0f times, want only the slice it returns", allocs)
	}
}

// TestTrustedConcurrent: one beacon serves every contract of a network, from
// whichever goroutine issues the challenge. Run under -race.
func TestTrustedConcurrent(t *testing.T) {
	b, err := NewTrusted([]byte("shared"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := g; r < 400; r += 8 {
				got, _ := b.Randomness(r)
				if !bytes.Equal(got, hmacExpansion(b.root, r)) {
					t.Errorf("round %d differs from the HMAC under concurrency", r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
