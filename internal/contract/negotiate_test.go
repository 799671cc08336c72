package contract

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// deployed returns n one-round contracts of alice under pk on c, ready to
// Negotiate.
func deployed(tb testing.TB, c *chain.Chain, pk *core.PublicKey, n int) []*Contract {
	tb.Helper()
	ks := make([]*Contract, n)
	for i := range ks {
		k, err := Deploy(c, chain.Address(fmt.Sprintf("k%d", i)), Agreement{
			Owner: "alice", Provider: "provider", Rounds: 1, ChallengeSize: 1,
			RoundInterval: 1, ProofDeadline: 1, PaymentPerRound: big.NewInt(1),
			OwnerDeposit: big.NewInt(1), ProviderDeposit: big.NewInt(1),
			NumChunks: 1, PublicKey: pk, PublicKeyPrivacy: true,
		}, fixedBeacon{}, 1)
		if err != nil {
			tb.Fatal(err)
		}
		ks[i] = k
	}
	return ks
}

// BenchmarkNegotiate times an owner's first contract, which posts the key
// body, and a later one, which posts its 64-byte reference, at s = 2 and
// s = 50 with the GT element.
func BenchmarkNegotiate(b *testing.B) {
	for _, s := range []int{2, 50} {
		sk, err := core.KeyGen(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("s=%d/first", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := deployed(b, chain.New(chain.DefaultConfig()), sk.Pub, 1)[0]
				b.StartTimer()
				if err := k.Negotiate(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("s=%d/later", s), func(b *testing.B) {
			b.ReportAllocs()
			ks := deployed(b, chain.New(chain.DefaultConfig()), sk.Pub, b.N+1)
			if err := ks[0].Negotiate(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for _, k := range ks[1:] {
				if err := k.Negotiate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNegotiateAllocsFlatInKeySize: once an owner's body is on chain, a
// contract's Negotiate allocates as often at s = 50 as at s = 2; the key is
// not encoded again per contract.
func TestNegotiateAllocsFlatInKeySize(t *testing.T) {
	const runs = 100
	allocs := make(map[int]float64)
	for _, s := range []int{2, 50} {
		sk, err := core.KeyGen(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun calls its function once more than runs, to warm up.
		ks := deployed(t, chain.New(chain.DefaultConfig()), sk.Pub, runs+2)
		if err := ks[0].Negotiate(); err != nil {
			t.Fatal(err)
		}
		next := 1
		allocs[s] = testing.AllocsPerRun(runs, func() {
			if err := ks[next].Negotiate(); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	if allocs[2] != allocs[50] {
		t.Fatalf("a later contract's Negotiate allocates %v times at s = 2 and %v at s = 50", allocs[2], allocs[50])
	}
}
