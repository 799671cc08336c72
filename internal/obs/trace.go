package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Event is one per-engagement span event in the audit lifecycle. The
// JSON encoding is the JSONL trace schema documented in the README.
type Event struct {
	Time       time.Time `json:"t"`
	Type       string    `json:"type"`
	Engagement string    `json:"eng"`
	Round      int       `json:"round"`
	Height     uint64    `json:"height"`
	Detail     string    `json:"detail,omitempty"`
}

// Trace event types emitted by the instrumented pipeline.
const (
	EvChallenge = "challenge" // challenge issued to the provider
	EvProof     = "proof"     // proof received and sealed for settlement
	EvSettled   = "settled"   // round settled on chain (detail: passed|failed|deadline)
	EvSlashed   = "slashed"   // provider slashed (failed round or missed deadline)
	EvRepaired  = "repaired"  // lost share reconstructed and re-placed
)

// Sink consumes trace events. Emit must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// Tracer fans events out to a sink. A nil *Tracer (or a Tracer with a
// nil sink) drops everything at the cost of one branch, so hot paths
// can emit unconditionally through a possibly-nil field.
type Tracer struct {
	sink Sink
}

// NewTracer wraps a sink. NewTracer(nil) returns a tracer that drops
// all events.
func NewTracer(s Sink) *Tracer { return &Tracer{sink: s} }

// Emit records one event, stamping the current time.
func (t *Tracer) Emit(typ, engagement string, round int, height uint64, detail string) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Emit(Event{
		Time:       time.Now(),
		Type:       typ,
		Engagement: engagement,
		Round:      round,
		Height:     height,
		Detail:     detail,
	})
}

// JSONLSink appends one JSON object per event to a file — the durable
// trace format replayed by tooling and the lifecycle tests.
type JSONLSink struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

// NewJSONLSink creates (truncating) path and returns a sink writing one
// JSON-encoded Event per line.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONLSink{f: f, w: bufio.NewWriter(f)}, nil
}

// Emit implements Sink. The first write error is latched and reported
// by Close.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
	}
}

// Close flushes and closes the file, returning the first error seen.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
