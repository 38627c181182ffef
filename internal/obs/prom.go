package obs

import (
	"math"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) export of a Registry snapshot.
//
// Every metric is prefixed with a namespace ("cdmm" for the telemetry
// server), counters gain the conventional `_total` suffix, and
// histograms render a cumulative `_bucket{le="..."}` series per occupied
// log2 bucket (le is its inclusive upper bound) plus the mandatory
// `le="+Inf"` bucket, `_sum` and `_count`.
// Names are emitted in sorted order per section, so consecutive scrapes
// of an idle registry are byte-identical — convenient for tests and for
// diffing scrapes by eye.

// PromContentType is the Content-Type a /metrics endpoint should serve:
// the Prometheus text exposition format this package writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// AppendPrometheus appends the snapshot's exposition-format rendering,
// under the given namespace prefix (pass "" for none), to b and returns
// the extended slice. Callers that reuse b (and the Snapshot, via
// SnapshotInto) scrape without allocating.
func (s Snapshot) AppendPrometheus(b []byte, namespace string) []byte {
	// The sanitized metric name is rebuilt into a stack scratch buffer
	// per metric so the scrape loop performs no string allocation.
	var nameBuf [128]byte
	for _, c := range s.Counters {
		name := appendPromName(nameBuf[:0], namespace, c.Name, "_total")
		b = appendPromHeader(b, name, c.Name, "counter")
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.Value, 10)
		b = append(b, '\n')
	}
	for _, g := range s.Gauges {
		name := appendPromName(nameBuf[:0], namespace, g.Name, "")
		b = appendPromHeader(b, name, g.Name, "gauge")
		b = append(b, name...)
		b = append(b, ' ')
		b = appendPromFloat(b, g.Value)
		b = append(b, '\n')
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		name := appendPromName(nameBuf[:0], namespace, h.Name, "")
		b = appendPromHeader(b, name, h.Name, "histogram")
		b = appendPromSeries(b, name, &h.Log2Snapshot)
	}
	return b
}

// appendPromHeader emits the # HELP and # TYPE comment lines. The help
// text is the registry-level metric name with exposition-format escaping
// (backslash and newline), which documents the mapping from the sanitized
// Prometheus name back to the simulator's own.
func appendPromHeader(b []byte, name []byte, origin, typ string) []byte {
	b = append(b, `# HELP `...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, `simulator metric `...)
	b = appendPromHelp(b, origin)
	b = append(b, '\n')
	b = append(b, `# TYPE `...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

// appendPromHelp escapes a HELP text per the exposition format: backslash
// and line feed (double quotes are only escaped inside label values).
func appendPromHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and line feed.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// appendPromName builds the exported metric name into b: namespace_name
// with every character outside [a-zA-Z0-9_:] replaced by '_' (and a '_'
// prefix when the name would start with a digit), plus an optional
// suffix — which is not doubled when the metric name already carries it.
// Appending instead of returning a string keeps the scrape loop free of
// per-metric allocations.
func appendPromName(b []byte, namespace, name, suffix string) []byte {
	start := len(b)
	if namespace != "" {
		b = append(b, namespace...)
		b = append(b, '_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if len(b) == start {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if suffix != "" && !hasSuffix(b[start:], suffix) {
		b = append(b, suffix...)
	}
	return b
}

// hasSuffix is bytes.HasSuffix without the []byte(suffix) conversion.
func hasSuffix(b []byte, suffix string) bool {
	if len(b) < len(suffix) {
		return false
	}
	return string(b[len(b)-len(suffix):]) == suffix
}

// appendPromFloat renders a float the way Prometheus clients expect:
// shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func appendPromFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, `+Inf`...)
	case math.IsInf(v, -1):
		return append(b, `-Inf`...)
	case math.IsNaN(v):
		return append(b, `NaN`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
