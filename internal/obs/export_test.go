package obs

import "io"

// TestPrometheusGolden calls this by the exported name it had when its
// golden text was pinned; the alias keeps that test as written.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.writePrometheus(w) }
