package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"time"
)

// The box this benchmark runs on is a small guest of a shared host, and the
// speed of its cores moves by 25-40% for tens of seconds at a time with what
// the neighbours on the same physical cores do (README.md, "Measured
// noise"). The CPU time of a fixed piece of pairing work moves with it, so
// every time this benchmark measures does, whatever the code under test is.
// The end-to-end times are therefore reported at a reference speed. At quiet
// points of a timed phase - between set-up batches, soak cycles and files,
// and on the audit workloads every sampleEvery at a tick boundary with no
// settlement in flight - the benchmark stops the phase's clocks and times a
// fixed multiplication kernel of its own on both cores. The phase's slowness
// is the mean of its samples over refChunkSeconds. A workload does not slow
// by all of it: the kernel is nothing but multiplications, the program also
// waits for memory, the runtime and the kernel of the guest, and those feel a
// busy neighbour less. How much of the slowness a workload's times follow is
// its host share, measured once per workload (README.md, "Times at the
// reference speed"), and every wall-clock and CPU time measured in the phase
// is divided by slowness^share. The kernel shares no code with the
// repository, so a change to the program cannot move it.

const (
	// refChunkSeconds is how long one chunk of the kernel takes on the
	// reference box in its fast state; it only fixes the scale, so that
	// slowness reads 1 there.
	refChunkSeconds = 0.00130
	kernelChunks    = 8     // per core and sample
	chunkSteps      = 60000 // 256x256-bit products per chunk
	sampleEvery     = time.Second
)

// kernelSink keeps the compiler from discarding the kernel.
var kernelSink [cores]uint64

// refKernel times 256x256-bit schoolbook products - sixteen independent
// 64x64->128-bit multiplications each, the instruction mix of the pairing
// arithmetic - on every core at once, as the workloads use them, and returns
// the median chunk's duration in seconds. The multiplications must be
// independent: what slows a shared core is competition for its execution
// units, which a chain of dependent operations hardly feels and the
// program's arithmetic does (over 13 minutes of this box's drift, a
// dependent chain followed the time of a fixed batch of pairings with
// correlation 0.81 and this kernel with 0.96). The median over chunks,
// because the process is not idle at a quiet point: a garbage collection the
// workload left running takes a core from some chunks, and that is not the
// host.
func refKernel() float64 {
	runtime.GC()
	var wg sync.WaitGroup
	var took [cores][kernelChunks]float64
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := [4]uint64{0x9e3779b97f4a7c15 + uint64(g), 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d}
			y := [4]uint64{0xd6e8feb86659fd93, 0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x123456789abcdef1}
			for chunk := range took[g] {
				start := time.Now()
				for i := 0; i < chunkSteps; i++ {
					var z [8]uint64
					for a := 0; a < 4; a++ {
						var carry uint64
						for b := 0; b < 4; b++ {
							hi, lo := bits.Mul64(x[a], y[b])
							lo, c1 := bits.Add64(lo, z[a+b], 0)
							lo, c2 := bits.Add64(lo, carry, 0)
							z[a+b] = lo
							carry = hi + c1 + c2
						}
						z[a+4] = carry
					}
					x[0], x[1], x[2], x[3] = z[0]^z[4]|1, z[1]^z[5], z[2]^z[6], z[3]^z[7]
				}
				took[g][chunk] = time.Since(start).Seconds()
			}
			kernelSink[g] ^= x[0]
		}(g)
	}
	wg.Wait()
	var all []float64
	for g := range took {
		all = append(all, took[g][:]...)
	}
	return median(all)
}

// phase is one timed stretch of a run: what was done in it, how long it took
// by clocks that stand still while the kernel runs, and the kernel samples
// taken at its quiet points. begin, sample and end run at quiet points; op
// may run concurrently with nothing but other ops.
type phase struct {
	share   float64 // how much of the host's slowness the phase's times follow
	mu      sync.Mutex
	kernel  []float64 // seconds per chunk, one per sample
	wall    time.Duration
	cpu     time.Duration
	ops     int
	latency []float64 // ms

	start time.Time // of the stretch since the last sample
	cpu0  time.Duration
}

// begin takes the first sample and starts the clocks.
func (p *phase) begin() {
	p.kernel = append(p.kernel, refKernel())
	p.start, p.cpu0 = time.Now(), cpuTime()
}

// sample stops the clocks, times the kernel and starts them again.
func (p *phase) sample() {
	p.end()
	p.start, p.cpu0 = time.Now(), cpuTime()
}

// end stops the clocks and takes the last sample.
func (p *phase) end() {
	p.wall += time.Since(p.start)
	p.cpu += cpuTime() - p.cpu0
	p.kernel = append(p.kernel, refKernel())
}

// due reports whether the last sample is old enough to take another.
func (p *phase) due() bool { return time.Since(p.start) >= sampleEvery }

// op counts one finished operation and its latency.
func (p *phase) op(latencyMs float64) {
	p.mu.Lock()
	p.ops++
	p.latency = append(p.latency, latencyMs)
	p.mu.Unlock()
}

// slowness is how much slower than the reference speed the host ran over the
// phase: the mean of its kernel samples over refChunkSeconds. A sample more
// than three times the median one counts as three times it: a stall of the
// whole guest that swallows one 10 ms sample would otherwise weigh as much as
// a second of the run.
func (p *phase) slowness() float64 {
	limit := 3 * median(p.kernel)
	var total float64
	for _, k := range p.kernel {
		total += min(k, limit)
	}
	return total / float64(len(p.kernel)) / refChunkSeconds
}

// scale is what the phase's times are divided by to read at the reference
// speed: a power, so that a box whose fast state is not the reference box's
// moves every run by the same factor and no comparison by any.
func (p *phase) scale() float64 { return math.Pow(p.slowness(), p.share) }

// into writes the phase's end-to-end numbers, at the reference speed, and on
// traced runs what the scaling did.
func (p *phase) into(res *result) {
	n, scale := float64(p.ops), p.scale()
	p50, p90 := percentile(p.latency, 50), percentile(p.latency, 90)
	res.setN("throughput_per_s", n/p.wall.Seconds()*scale, p.ops)
	res.setN("latency_ms_p50", p50/scale, len(p.latency))
	res.setN("latency_ms_p90", p90/scale, len(p.latency))
	res.setN("cpu_ms_per_op", ms(p.cpu)/n/scale, p.ops)
	p.describe(res, n/p.wall.Seconds(), ms(p.cpu)/n, p50, p90)
}

// describe records what the scaling did to a run: the two host metrics of a
// traced run, and the lines every run prints before its report.
func (p *phase) describe(res *result, perSec, cpuMs, p50, p90 float64) {
	res.set("host.slowdown", p.slowness())
	res.set("host.raw_throughput_per_s", perSec)
	var b strings.Builder
	fmt.Fprintf(&b, "host slowness %.3f (share %.2f, times divided by %.3f) over %d kernel samples:", p.slowness(), p.share, p.scale(), len(p.kernel))
	for _, k := range p.kernel {
		fmt.Fprintf(&b, " %.2f", k/refChunkSeconds)
	}
	fmt.Fprintf(&b, "\n  as measured: %.4f ops/s, %.4f ms CPU per op, latency p50 %.4f ms, p90 %.4f ms\n", perSec, cpuMs, p50, p90)
	res.host = b.String()
}

// timedAtRef runs fn n times with a kernel sample before, between and after,
// and returns each call's wall time in seconds at the reference speed.
func timedAtRef(share float64, n int, fn func(i int) error) ([]float64, error) {
	p := phase{share: share}
	secs := make([]float64, n)
	p.begin()
	for i := range secs {
		before := p.wall
		if err := fn(i); err != nil {
			return nil, err
		}
		p.sample()
		secs[i] = (p.wall - before).Seconds()
	}
	for i := range secs {
		secs[i] /= p.scale()
	}
	return secs, nil
}
