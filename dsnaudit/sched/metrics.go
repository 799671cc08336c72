package sched

import (
	"strconv"

	"repro/internal/obs"
)

// schedObs holds the scheduler's live metric series. A nil *schedObs is
// the uninstrumented default: every touch point checks the one pointer
// and does nothing else, so observability off costs one branch per site.
//
// The cumulative Stats counters (ticks, woken, challenges, ...) are
// re-exported as func-backed series reading Stats() at scrape time —
// zero added cost on the hot path and no dual accounting to drift. Only
// the per-tick gauges and the checkpoint histogram are live series.
type schedObs struct {
	due      *obs.Gauge   // entries woken at the last tick
	deferred *obs.Gauge   // admission deferrals at the last tick
	parked   *obs.Gauge   // entries currently on the deadline/backoff path
	depth    []*obs.Gauge // armed entries per shard wake queue
	ckptDur  *obs.Histogram
}

// WithMetrics attaches a metrics registry: the scheduler registers its
// dsn_sched_* family (and, when a journal is set, the journal's
// dsn_journal_* family) and keeps the per-tick gauges current. A nil
// registry leaves the scheduler uninstrumented.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Scheduler) { s.metricsReg = reg }
}

// WithTracer attaches a per-engagement event tracer emitting challenge,
// proof, settled and slashed events. A nil tracer is a no-op.
func WithTracer(t *obs.Tracer) Option {
	return func(s *Scheduler) { s.tracer = t }
}

// instrument registers the scheduler's metric families. Called once at
// the end of NewScheduler, after options have fixed the shard count and
// journal.
func (s *Scheduler) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	reg.CounterFunc("dsn_sched_ticks_total", "blocks processed by the scheduler run loop",
		stat(func(x Stats) float64 { return float64(x.Ticks) }))
	reg.CounterFunc("dsn_sched_woken_total", "entries popped from wake queues",
		stat(func(x Stats) float64 { return float64(x.Woken) }))
	reg.CounterFunc("dsn_sched_challenges_total", "challenges issued",
		stat(func(x Stats) float64 { return float64(x.Challenges) }))
	reg.CounterFunc("dsn_sched_proofs_total", "proofs received and submitted",
		stat(func(x Stats) float64 { return float64(x.Proofs) }))
	reg.CounterFunc("dsn_sched_settled_rounds_total", "rounds settled",
		stat(func(x Stats) float64 { return float64(x.SettledRounds) }))
	reg.CounterFunc("dsn_sched_slashes_total", "failed rounds and missed deadlines",
		stat(func(x Stats) float64 { return float64(x.Slashes) }))
	reg.CounterFunc("dsn_sched_deferrals_total", "challenges deferred by per-shard admission",
		stat(func(x Stats) float64 { return float64(x.Deferrals) }))
	reg.CounterFunc("dsn_sched_retries_total", "overloaded challenges re-dispatched",
		stat(func(x Stats) float64 { return float64(x.Retries) }))
	reg.CounterFunc("dsn_sched_overloads_total", "ErrOverloaded refusals observed",
		stat(func(x Stats) float64 { return float64(x.Overloads) }))
	reg.CounterFunc("dsn_sched_compacted_total", "terminal entries dropped by compaction",
		stat(func(x Stats) float64 { return float64(x.Compacted) }))
	reg.GaugeFunc("dsn_sched_queued", "entries currently armed in wake queues",
		stat(func(x Stats) float64 { return float64(x.Queued) }))
	reg.GaugeFunc("dsn_sched_live", "entries not yet terminal",
		stat(func(x Stats) float64 { return float64(x.Live) }))
	o := &schedObs{
		due:      reg.Gauge("dsn_sched_due", "entries woken at the last tick"),
		deferred: reg.Gauge("dsn_sched_deferred", "admission deferrals at the last tick"),
		parked:   reg.Gauge("dsn_sched_parked", "entries parked on the deadline or overload-backoff path"),
		ckptDur:  reg.Histogram("dsn_sched_checkpoint_seconds", "checkpoint write duration", nil),
	}
	for i := range s.store.shards {
		o.depth = append(o.depth, reg.Gauge("dsn_sched_wake_queue_depth",
			"armed entries per shard wake queue", obs.L("shard", strconv.Itoa(i))))
	}
	s.obs = o
	if s.journal != nil {
		s.journal.Instrument(reg)
	}
}

// trackParked keeps the parked gauge consistent across one phase
// transition.
func (o *schedObs) trackParked(old, next phase) {
	if o == nil {
		return
	}
	wasParked := old == phaseDeadline || old == phaseRetry
	isParked := next == phaseDeadline || next == phaseRetry
	if wasParked && !isParked {
		o.parked.Add(-1)
	} else if !wasParked && isParked {
		o.parked.Add(1)
	}
}

// obsSyncParked recounts the parked gauge from the registry — Recover
// restores parked phases directly, bypassing the transition tracking.
func (s *Scheduler) obsSyncParked() {
	if s.obs == nil {
		return
	}
	n := 0
	s.store.mu.Lock()
	for _, en := range s.store.byID {
		if en.phase == phaseDeadline || en.phase == phaseRetry {
			n++
		}
	}
	s.store.mu.Unlock()
	s.obs.parked.Set(int64(n))
}

// obsTick updates the per-tick gauges after a wake pop.
func (s *Scheduler) obsTick(popped, deferrals int) {
	if s.obs == nil {
		return
	}
	s.obs.due.Set(int64(popped))
	s.obs.deferred.Set(int64(deferrals))
	for i, g := range s.obs.depth {
		sh := s.store.shards[i]
		sh.mu.Lock()
		n := sh.queue.Len()
		sh.mu.Unlock()
		g.Set(int64(n))
	}
}
