package erasure_test

import (
	"bytes"
	"fmt"

	"repro/internal/erasure"
)

// Example demonstrates the paper's 3-out-of-10 redundancy: any 3 of the 10
// shares reconstruct the archive.
func Example() {
	coder, err := erasure.NewCoder(3, 7)
	if err != nil {
		panic(err)
	}
	data := []byte("archival data that must survive 7 of 10 providers vanishing")
	shares, err := coder.Split(data)
	if err != nil {
		panic(err)
	}

	// Seven providers vanish; keep only shares 1, 6 and 9.
	surviving := make([][]byte, len(shares))
	surviving[1], surviving[6], surviving[9] = shares[1], shares[6], shares[9]

	restored, err := coder.Join(surviving, len(data))
	if err != nil {
		panic(err)
	}
	fmt.Println("shares:", len(shares))
	fmt.Println("restored:", bytes.Equal(restored, data))
	fmt.Printf("storage expansion: %.2fx\n", float64(len(shares))/3)
	// Output:
	// shares: 10
	// restored: true
	// storage expansion: 3.33x
}
