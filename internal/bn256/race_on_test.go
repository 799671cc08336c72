//go:build race

package bn256

// raceEnabled: under the race detector sync.Pool drops a share of its Puts on
// purpose, so allocation ceilings that count on pooled scratch do not hold.
const raceEnabled = true
