package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// writePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), families sorted by name and
// series by label set, so output is deterministic for golden tests.
func (r *Registry) writePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	meta := r.familyMeta()
	samples := r.Snapshot()
	var lastFam string
	for _, s := range samples {
		if s.Name != lastFam {
			m := meta[s.Name]
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(m.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, m.kind.promType()); err != nil {
				return err
			}
			lastFam = s.Name
		}
		if err := writeSample(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, s Sample) error {
	if s.Kind != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, renderLabels(s.Labels, "", ""), formatValue(s.Value))
		return err
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Buckets) {
			le = formatValue(s.Buckets[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, renderLabels(s.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, renderLabels(s.Labels, "", ""), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, renderLabels(s.Labels, "", ""), s.Count)
	return err
}

// renderLabels renders {k="v",...}, optionally appending one extra
// label (used for histogram le). Returns "" for an empty set.
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a float the way Prometheus clients expect:
// integers without an exponent or trailing zeros, everything else in
// shortest-round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v > -1e15 && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}

var expvarOnce sync.Mutex

// PublishExpvar publishes the registry under the given expvar name as a
// JSON map of "family{labels}" -> value (histograms expose count, sum,
// p50, p99). Publishing the same name twice is a no-op instead of the
// expvar panic, so tests and multiple CLI modes can share a process.
func PublishExpvar(name string, r *Registry) {
	if r == nil {
		return
	}
	expvarOnce.Lock()
	defer expvarOnce.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		out := make(map[string]any)
		for _, s := range r.Snapshot() {
			key := s.Name + renderLabels(s.Labels, "", "")
			if s.Kind == "histogram" {
				h := map[string]any{"count": s.Count, "sum": s.Sum}
				out[key] = h
			} else {
				out[key] = s.Value
			}
		}
		return out
	}))
}

// newMux builds the introspection mux: /metrics (Prometheus text),
// /debug/vars (expvar, including the registry published as
// "dsn_metrics"), and the full net/http/pprof suite under /debug/pprof/.
func newMux(r *Registry) *http.ServeMux {
	PublishExpvar("dsn_metrics", r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the introspection server on addr (use ":0" or
// "127.0.0.1:0" for an ephemeral port) and returns the bound address
// and a shutdown func. The server runs until shutdown is called.
func Serve(addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: newMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
