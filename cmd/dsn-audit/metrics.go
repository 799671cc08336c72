// Observability plumbing for the CLI: -metrics serves the process's
// registry over HTTP (Prometheus text on /metrics, expvar on
// /debug/vars, pprof under /debug/pprof/), and -trace streams
// per-engagement audit events to a JSONL file.
package main

import (
	"fmt"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/obs"
)

// cliObs bundles the optional observability surface of one CLI run. The
// zero value (no -metrics, no -trace) leaves reg and tracer nil, which
// every instrumentation hook treats as "off".
type cliObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	sink   *obs.JSONLSink
	stop   func()
}

// setupObs starts the metrics endpoint and trace sink as requested;
// either address may be empty. The METRICS line is machine-readable
// (like LISTEN); callers wait for it to learn the bound address.
func setupObs(metricsAddr, traceFile string) (*cliObs, error) {
	o := &cliObs{}
	if metricsAddr != "" {
		o.reg = obs.NewRegistry()
		obs.PublishExpvar("dsn", o.reg)
		bound, stop, err := obs.Serve(metricsAddr, o.reg)
		if err != nil {
			return nil, err
		}
		o.stop = stop
		fmt.Printf("METRICS %s\n", bound)
	}
	if traceFile != "" {
		sink, err := obs.NewJSONLSink(traceFile)
		if err != nil {
			o.close()
			return nil, err
		}
		o.sink = sink
		o.tracer = obs.NewTracer(sink)
		fmt.Printf("trace events -> %s\n", traceFile)
	}
	return o, nil
}

// schedOptions is the option list every scheduler of the CLI starts from
// (run, run -remote and resume): a batch verifier instrumented on the
// registry, the registry and the tracer.
func (o *cliObs) schedOptions() []sched.Option {
	v := &dsnaudit.BatchVerifier{}
	v.Instrument(o.reg)
	return []sched.Option{sched.WithVerifier(v), sched.WithMetrics(o.reg), sched.WithTracer(o.tracer)}
}

// close flushes the trace sink and shuts the metrics server down.
func (o *cliObs) close() {
	if o.sink != nil {
		_ = o.sink.Close()
	}
	if o.stop != nil {
		o.stop()
	}
}

// declareProviderFamilies pre-registers the driver-side metric families
// as zero-valued series on a serving provider's registry. A provider
// process runs no scheduler, journal or settlement of its own, so
// without this its /metrics would expose only the wire family; with it,
// one scrape config covers drivers and providers uniformly and a
// dashboard never sees a family flicker into existence. Safe precisely
// because no real instrumenter registers these names in a serve
// process.
func declareProviderFamilies(reg *obs.Registry) {
	if reg == nil {
		return
	}
	// A scheduler that never runs registers the whole dsn_sched_* family
	// at zero, so the declared list cannot drift from what a driver exports.
	sched.NewScheduler(nil, sched.WithMetrics(reg))
	zero := func() float64 { return 0 }
	reg.CounterFunc("dsn_journal_appends_total", "journal records appended", zero)
	reg.CounterFunc("dsn_journal_fsyncs_total", "journal fsync batches", zero)
	reg.CounterFunc("dsn_settle_blocks_total", "blocks settled", zero)
	reg.CounterFunc("dsn_settle_rounds_total", "engagement rounds settled", zero)
}
