package remote

import (
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The per-message-type series are prefetched into arrays indexed by
// wire.Type at instrument time, so the request path never takes the
// registry lock: the hot-path cost is one nil check plus one atomic.

// serverObs holds the provider-side wire metric series.
type serverObs struct {
	requests  [wire.MsgShareData + 1]*obs.Counter // by request frame type
	frameErrs *obs.Counter
}

// clientObs holds the driver-side wire metric series.
type clientObs struct {
	rtt       [wire.MsgShareData + 1]*obs.Histogram // by request frame type
	retries   *obs.Counter
	frameErrs *obs.Counter
}

// WithServerMetrics registers the server's dsn_remote_* series on reg:
// per-request-type counters and framing errors (labeled side="server"). A
// nil registry is a no-op.
func WithServerMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			return
		}
		o := &serverObs{
			frameErrs: reg.Counter("dsn_remote_frame_errors_total", "connections dropped on framing or handshake violations", obs.L("side", "server")),
		}
		for t := wire.MsgHello; t <= wire.MsgShareData; t++ {
			o.requests[t] = reg.Counter("dsn_remote_requests_total", "request frames served, by message type", obs.L("type", t.String()))
		}
		s.obs = o
	}
}

// WithClientMetrics registers the client's dsn_remote_* series on reg:
// per-request-type round-trip latency histograms, redial retries, and
// framing errors (labeled side="client"). A nil registry is a no-op.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		if reg == nil {
			return
		}
		o := &clientObs{
			retries:   reg.Counter("dsn_remote_retries_total", "calls re-dialed after a transport failure"),
			frameErrs: reg.Counter("dsn_remote_frame_errors_total", "responses dropped as protocol garbage", obs.L("side", "client")),
		}
		for t := wire.MsgHello; t <= wire.MsgShareData; t++ {
			o.rtt[t] = reg.Histogram("dsn_remote_rtt_seconds", "request round-trip latency, by message type",
				obs.DurationBuckets, obs.L("type", t.String()))
		}
		c.obs = o
	}
}

// observeRTT records one completed round-trip for typ.
func (o *clientObs) observeRTT(typ wire.Type, d time.Duration) {
	if o == nil || !typ.Valid() {
		return
	}
	o.rtt[typ].ObserveDuration(d)
}

// countRequest records one served request frame of type typ.
func (o *serverObs) countRequest(typ wire.Type) {
	if o == nil || !typ.Valid() {
		return
	}
	o.requests[typ].Inc()
}
