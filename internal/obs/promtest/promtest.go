// Package promtest parses and validates the Prometheus text exposition
// format that obs.PromWriter writes, so tests can read GET /metrics back.
// It is test support in the style of net/http/httptest: only _test.go
// files import it, and no production path reads the format.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family: its declared type and samples
// (for histograms, the _bucket/_sum/_count series all belong to the base
// family).
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// Parse parses and validates Prometheus text exposition format: every
// sample must follow a TYPE declaration of its family, names and labels
// must be well-formed, histogram families must carry cumulative
// nondecreasing _bucket series ending at a +Inf bucket that equals _count,
// with _sum present — the triple the exposition contract promises. It is
// the shared validator behind the /metrics golden test and the serve smoke
// test, strict enough that a formatting regression fails both.
func Parse(r io.Reader) (map[string]*Family, error) {
	fams := map[string]*Family{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // other comments are legal
			}
			name := fields[2]
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			f := fams[name]
			if f == nil {
				f = &Family{Name: name}
				fams[name] = f
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				f.Type = fields[3]
			} else if len(fields) >= 4 {
				f.Help = fields[3]
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := sample.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sample.Name, suffix)
			if base != sample.Name {
				if f, ok := fams[base]; ok && f.Type == "histogram" {
					fam = base
				}
				break
			}
		}
		f, ok := fams[fam]
		if !ok || f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s before its TYPE line", lineNo, sample.Name)
		}
		f.Samples = append(f.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "histogram" {
			if err := validateHistogramFamily(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", f.Name, err)
			}
		}
	}
	return fams, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return s, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := strings.TrimSuffix(rest[:eq], ",")
			key = strings.TrimPrefix(key, ",")
			if !validLabelName(key) {
				return s, fmt.Errorf("bad label name %q in %q", key, line)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					e := rest[0]
					rest = rest[1:]
					switch e {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape \\%c in %q", e, line)
					}
					continue
				}
				val.WriteByte(c)
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q in %q", key, line)
			}
			s.Labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// validateHistogramFamily checks each label set's cumulative bucket
// contract: nondecreasing counts over increasing le, a +Inf bucket, and
// matching _sum/_count series.
func validateHistogramFamily(f *Family) error {
	type series struct {
		les    []float64
		counts []float64
		sum    bool
		count  float64
		hasCnt bool
	}
	groups := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%q,", k, labels[k])
		}
		return b.String()
	}
	get := func(labels map[string]string) *series {
		k := keyOf(labels)
		g := groups[k]
		if g == nil {
			g = &series{}
			groups[k] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch {
		case s.Name == f.Name+"_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			var le float64
			if leStr == "+Inf" {
				le = math.Inf(1)
			} else {
				var err error
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					return fmt.Errorf("bad le %q", leStr)
				}
			}
			g := get(s.Labels)
			g.les = append(g.les, le)
			g.counts = append(g.counts, s.Value)
		case s.Name == f.Name+"_sum":
			get(s.Labels).sum = true
		case s.Name == f.Name+"_count":
			g := get(s.Labels)
			g.count = s.Value
			g.hasCnt = true
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for key, g := range groups {
		if len(g.les) == 0 {
			return fmt.Errorf("series {%s} has no buckets", key)
		}
		if !g.sum || !g.hasCnt {
			return fmt.Errorf("series {%s} missing _sum or _count", key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("series {%s} le bounds not increasing", key)
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("series {%s} bucket counts not cumulative", key)
			}
		}
		last := len(g.les) - 1
		if !math.IsInf(g.les[last], 1) {
			return fmt.Errorf("series {%s} missing +Inf bucket", key)
		}
		if g.counts[last] != g.count {
			return fmt.Errorf("series {%s} +Inf bucket %g != count %g", key, g.counts[last], g.count)
		}
	}
	return nil
}
