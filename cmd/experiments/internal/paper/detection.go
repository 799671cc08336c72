package paper

import "math"

// DetectionProbability returns the probability that an audit challenging k
// of d chunks touches at least one of the c corrupted chunks:
// 1 - C(d-c,k)/C(d,k), computed in log space for stability. This is the
// storage-confidence model behind the paper's "k=300 gives 95% assurance at
// 1% corruption" (Section VI-A) and the x axis of Fig. 9.
func DetectionProbability(d, c, k int) float64 {
	if c <= 0 || k <= 0 || d <= 0 {
		return 0
	}
	if k+c > d {
		return 1
	}
	// log C(d-c,k) - log C(d,k) = sum_{i=0}^{k-1} log((d-c-i)/(d-i))
	logMiss := 0.0
	for i := 0; i < k; i++ {
		logMiss += math.Log(float64(d-c-i)) - math.Log(float64(d-i))
	}
	return 1 - math.Exp(logMiss)
}

// ChunksForConfidence returns the smallest k whose detection probability at
// corruption ratio rho reaches conf, using the paper's i.i.d. approximation
// k = ln(1-conf)/ln(1-rho). Fig. 9's x axis (91%..99% at rho = 1%) maps to
// k = 240..460 through this function.
func ChunksForConfidence(conf, rho float64) int {
	if conf <= 0 || conf >= 1 || rho <= 0 || rho >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(1-conf) / math.Log(1-rho)))
}
