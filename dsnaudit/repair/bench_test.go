package repair

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/storage"
)

// BenchmarkReconstruct measures the pure data-plane cost of rebuilding one
// lost share from K survivors: erasure decode, whole-blob hash check,
// re-split, per-share hash check. This is repair's floor — everything else
// the pipeline adds (audit-state rebuild, contract deployment) sits on top.
func BenchmarkReconstruct(b *testing.B) {
	key := make([]byte, storage.KeySize)
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	man, shares, err := storage.Prepare("bench", key, data, 4, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	survivors := make([][]byte, len(shares))
	copy(survivors, shares)
	survivors[2] = nil
	survivors[5] = nil
	b.SetBytes(int64(len(shares[2])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(man, survivors, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair measures one full repair: survivor fetches, share
// reconstruction, audit-state rebuild (the pairing-group Setup over the
// share's bytes), replacement lookup and the fresh contract deployment.
// Each iteration repairs the same share slot again at the next generation,
// so the chain and reputation state grow exactly as they would under
// sustained churn.
func BenchmarkRepair(b *testing.B) {
	bc, err := beacon.NewTrusted([]byte("bench-repair"))
	if err != nil {
		b.Fatal(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(bc))
	if err != nil {
		b.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1e9), big.NewInt(1e9))
	for i := 0; i < 10; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("bp-%02d", i), funds); err != nil {
			b.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "bench-owner", 8, funds)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 8*1024)
	for i := range data {
		data[i] = byte(i * 17)
	}
	sf, err := owner.OutsourceSharded("bench-file", data, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	terms := testTerms(2)
	set, err := owner.EngageShares(context.Background(), sf, terms, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := sched.NewScheduler(net)
	mgr := NewManager(owner, s)
	if err := mgr.Track(sf, set, terms); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.mu.Lock()
		s := mgr.files["bench-file"].slots[0]
		mgr.mu.Unlock()
		mgr.repairShare(s)
	}
	b.StopTimer()
	st := mgr.Stats()
	if st.SharesRepaired != b.N {
		b.Fatalf("repaired %d of %d iterations: %+v (last: %+v)", st.SharesRepaired, b.N, st, mgr.Repairs()[len(mgr.Repairs())-1])
	}
}
