package sched

import "testing"

// TestCrashMatrix is the durability tentpole's behavioral contract: a
// journaled scheduler killed at every labeled crash point (several
// occurrences each, at one and at four shards), recovered from its journal
// directory, and driven to completion must be byte-identical — outcomes,
// funds, final height, reputation — to an uninterrupted run, with recovery
// reading no chain history and calling the resolver exactly once per entry.
// Run under -race this also exercises the journal appends against the
// pipeline overlap.
func TestCrashMatrix(t *testing.T) {
	shardCounts := []int{1, 4}
	var occurrences []int // nil: the matrix's default depth
	if testing.Short() {
		// One occurrence per point at one shard count still covers every
		// recovery path; the deeper occurrences vary how much journal is
		// replayed and which records the crash lost.
		shardCounts, occurrences = []int{4}, []int{1}
	}
	for _, shards := range shardCounts {
		rep, err := RunCrashMatrix(CrashMatrixConfig{Dir: t.TempDir(), Shards: shards, Occurrences: occurrences, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Failures {
			t.Errorf("shards=%d: %s", shards, f)
		}
		fired := 0
		for _, c := range rep.Cases {
			if c.Fired {
				fired++
				if c.Recovery == nil {
					t.Errorf("shards=%d: %s#%d: fired but no recovery report", shards, c.Point, c.Occurrence)
				}
			}
		}
		if fired == 0 {
			t.Fatalf("shards=%d: no crash case fired", shards)
		}
	}
}
