package paper_test

import (
	"fmt"

	"repro/cmd/experiments/internal/paper"
)

// ExampleDetectionProbability shows the paper's k=300 confidence anchor.
func ExampleDetectionProbability() {
	p := paper.DetectionProbability(100000, 1000, 300)
	fmt.Printf("k=300 at 1%% corruption: %.2f\n", p)
	fmt.Println("k for 95%:", paper.ChunksForConfidence(0.95, 0.01))
	// Output:
	// k=300 at 1% corruption: 0.95
	// k for 95%: 299
}
