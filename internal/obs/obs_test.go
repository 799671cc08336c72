package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the "zero value costs one branch" contract: every
// method on nil metrics, a nil registry, and a nil tracer is a no-op.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.count() != 0 || h.total() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Snapshot() != nil || r.writePrometheus(nil) != nil {
		t.Fatal("nil registry snapshot")
	}
	var tr *Tracer
	tr.Emit(EvChallenge, "eng", 0, 0, "")
	NewTracer(nil).Emit(EvProof, "eng", 1, 2, "")
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to
// an upper bound lands in that bucket, one above spills to the next,
// and values past the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 4.1, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // (<=1)=0.5,1.0  (<=2)=1.5,2.0  (<=4)=2.5,4.0  +Inf=4.1,100
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d: got %d want %d", i, got, w)
		}
	}
	if h.count() != 8 {
		t.Fatalf("count %d", h.count())
	}
	if math.Abs(h.total()-115.6) > 1e-9 {
		t.Fatalf("sum %v", h.total())
	}
}

// TestHistogramQuantile checks interpolation accuracy on a uniform
// spread: with fine buckets the estimator must land within one bucket
// width of the true quantile.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 1.1, 100))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000},
	} {
		got := h.Quantile(tc.q)
		if tc.want > 0 && math.Abs(got-tc.want)/tc.want > 0.11 {
			t.Fatalf("q%.2f: got %v want ~%v", tc.q, got, tc.want)
		}
	}
	// Empty histogram.
	if NewHistogram([]float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Everything in +Inf clamps to the last bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if h2.Quantile(0.5) != 2 {
		t.Fatalf("+Inf clamp: %v", h2.Quantile(0.5))
	}
}

// TestRegistryConcurrent hammers one registry with parallel writers,
// registrations, and snapshot/exposition readers; run under -race this
// is the concurrency contract for the whole package.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("dsn_test_ops_total", "ops", L("worker", fmt.Sprint(w%2)))
			g := r.Gauge("dsn_test_depth", "depth")
			h := r.Histogram("dsn_test_lat_seconds", "lat", nil)
			for i := 0; i < 5000; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	for rdr := 0; rdr < 2; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Snapshot()
				var sb strings.Builder
				_ = r.writePrometheus(&sb)
			}
		}()
	}
	// Concurrent re-registration must return the same series.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 1000; i++ {
			r.Counter("dsn_test_ops_total", "ops", L("worker", "0"))
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	total := uint64(0)
	for _, s := range r.Snapshot() {
		if s.Name == "dsn_test_ops_total" {
			total += uint64(s.Value)
		}
	}
	if total != 4*5000 {
		t.Fatalf("lost increments: %d", total)
	}
}

// TestRegistrySharing pins that registering the same name+labels twice
// returns the same underlying series (subsystems share families).
func TestRegistrySharing(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dsn_test_x_total", "x")
	b := r.Counter("dsn_test_x_total", "x")
	if a != b {
		t.Fatal("same series expected")
	}
	a.Inc()
	if b.value() != 1 {
		t.Fatal("shared state expected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("dsn_test_x_total", "x")
}

// TestPrometheusGolden pins the exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsn_test_reqs_total", "requests served", L("type", "challenge")).Add(3)
	r.Counter("dsn_test_reqs_total", "requests served", L("type", "proof")).Add(7)
	r.Gauge("dsn_test_live", "live engagements").Set(42)
	h := r.Histogram("dsn_test_rtt_seconds", "round trip", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)
	r.GaugeFunc("dsn_test_height", "chain height", func() float64 { return 9 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dsn_test_height chain height
# TYPE dsn_test_height gauge
dsn_test_height 9
# HELP dsn_test_live live engagements
# TYPE dsn_test_live gauge
dsn_test_live 42
# HELP dsn_test_reqs_total requests served
# TYPE dsn_test_reqs_total counter
dsn_test_reqs_total{type="challenge"} 3
dsn_test_reqs_total{type="proof"} 7
# HELP dsn_test_rtt_seconds round trip
# TYPE dsn_test_rtt_seconds histogram
dsn_test_rtt_seconds_bucket{le="0.1"} 1
dsn_test_rtt_seconds_bucket{le="0.5"} 2
dsn_test_rtt_seconds_bucket{le="+Inf"} 3
dsn_test_rtt_seconds_sum 2.35
dsn_test_rtt_seconds_count 3
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestJSONLSinkRoundTrip writes a trace and reads it back.
func TestJSONLSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(sink)
	tr.Emit(EvChallenge, "0xabc", 0, 17, "")
	tr.Emit(EvProof, "0xabc", 0, 17, "")
	tr.Emit(EvSettled, "0xabc", 0, 19, "passed")
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	ev, err := readJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 3 || ev[0].Type != EvChallenge || ev[2].Detail != "passed" || ev[2].Height != 19 {
		t.Fatalf("roundtrip: %+v", ev)
	}
}

// readJSONL decodes a JSONL trace file back into events.
func readJSONL(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
