package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// This file is the dependency-free Prometheus text-exposition support
// behind GET /metrics: a writer that emits HELP/TYPE-prefixed families
// with escaped labels, and a reflection helper that enumerates the int64
// counters of any json-tagged stats snapshot (so the exporter and the
// docs drift check share one tag universe). The validating parser the
// tests read that output with lives in internal/obs/promtest.

// NamedCounter is one (json tag, value) pair of a stats snapshot.
type NamedCounter struct {
	Name  string
	Value int64
}

// Counters enumerates the int64 fields of a stats snapshot struct in
// declaration order, named by json tag (or lowercased field name for
// untagged structs like SearchStats... which is fully tagged; the fallback
// exists for robustness). Non-int64 and json:"-" fields are skipped.
func Counters(v any) []NamedCounter {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	rt := rv.Type()
	out := make([]NamedCounter, 0, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if name == "" {
			name = strings.ToLower(f.Name)
		}
		out = append(out, NamedCounter{Name: name, Value: rv.Field(i).Int()})
	}
	return out
}

// CounterNames is Counters without the values — the docs drift check's view
// of a snapshot type.
func CounterNames(v any) []string {
	cs := Counters(v)
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// PromWriter emits Prometheus text exposition format (version 0.0.4). Emit
// every series of one metric name through consecutive calls — the format
// requires a family's lines to form one group, and the writer enforces the
// HELP/TYPE header exactly once per name, on the first call that uses it.
type PromWriter struct {
	w     *bufio.Writer
	seen  map[string]string // metric name -> declared type
	order []string
	err   error
}

// NewPromWriter wraps w. Call Flush when done; Err reports the first write
// error.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w), seen: map[string]string{}}
}

// Flush drains the buffer and returns the first error encountered.
func (p *PromWriter) Flush() error {
	if ferr := p.w.Flush(); p.err == nil {
		p.err = ferr
	}
	return p.err
}

// header writes the HELP/TYPE pair the first time name is seen.
func (p *PromWriter) header(name, help, typ string) {
	if prev, ok := p.seen[name]; ok {
		if prev != typ && p.err == nil {
			p.err = fmt.Errorf("obs: metric %s redeclared as %s (was %s)", name, typ, prev)
		}
		return
	}
	p.seen[name] = typ
	p.order = append(p.order, name)
	fmt.Fprintf(p.w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

// escapeHelp escapes backslash and newline (the HELP value escapes).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote and newline (the label value
// escapes).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders k1,v1,k2,v2,... pairs as {k1="v1",...} ("" for none).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value ('g' keeps integers short and large
// bounds exact enough).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one cumulative counter sample. labels are k,v pairs.
func (p *PromWriter) Counter(name, help string, v float64, labels ...string) {
	p.header(name, help, "counter")
	fmt.Fprintf(p.w, "%s%s %s\n", name, labelString(labels), formatFloat(v))
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	p.header(name, help, "gauge")
	fmt.Fprintf(p.w, "%s%s %s\n", name, labelString(labels), formatFloat(v))
}

// Histogram emits one histogram series — cumulative _bucket lines up to the
// highest occupied bucket plus +Inf, then _sum and _count. scale multiplies
// bucket bounds and the sum (1e-9 turns nanosecond observations into the
// seconds Prometheus latency conventions expect; 1 leaves counts alone).
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, scale float64, labels ...string) {
	p.header(name, help, "histogram")
	hi := 0
	for k := range s.Buckets {
		if s.Buckets[k] != 0 {
			hi = k
		}
	}
	var cum int64
	base := labelString(labels)
	for k := 0; k <= hi; k++ {
		cum += s.Buckets[k]
		le := float64(HistBucketUpper(k)) * scale
		fmt.Fprintf(p.w, "%s_bucket%s %d\n", name,
			labelString(append(append([]string{}, labels...), "le", formatFloat(le))), cum)
	}
	fmt.Fprintf(p.w, "%s_bucket%s %d\n", name,
		labelString(append(append([]string{}, labels...), "le", "+Inf")), s.Count)
	fmt.Fprintf(p.w, "%s_sum%s %s\n", name, base, formatFloat(float64(s.Sum)*scale))
	fmt.Fprintf(p.w, "%s_count%s %d\n", name, base, s.Count)
}
