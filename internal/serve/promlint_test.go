package serve

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	prom "repro/internal/metrics"
)

// The exposition format's name grammars, written out independently of
// the writer's own checks so the linter does not share its mistakes.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintProm validates a Prometheus text-format (0.0.4) exposition body the
// way `promtool check metrics` would, without the external binary. It
// enforces the structural rules a scraper depends on:
//
//   - every line is a comment, blank, or a well-formed sample
//   - metric and label names match the spec grammars; values parse
//   - at most one TYPE per family, declared before the family's samples,
//     with a known type; HELP at most once per family
//   - no duplicate series (same name + label set)
//   - a family's samples are contiguous (no interleaving)
//   - histogram families carry _bucket/_sum/_count, the buckets include
//     le="+Inf", cumulative bucket counts never decrease, and the +Inf
//     bucket equals _count
//
// It returns nil for a clean body and the first violation otherwise.
func lintProm(data []byte) error {
	type family struct {
		typ     string
		help    bool
		samples int
		closed  bool // a different family's sample appeared after ours
	}
	families := map[string]*family{}
	series := map[string]bool{}
	type bucketKey struct{ name, rest string } // histogram identity: base name + non-le labels
	lastBucket := map[bucketKey]float64{}      // last le seen, for ordering
	lastCount := map[bucketKey]float64{}       // last cumulative count seen
	infBucket := map[bucketKey]float64{}
	sumSeen := map[bucketKey]bool{}
	countVal := map[bucketKey]float64{}
	countSeen := map[bucketKey]bool{}

	get := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
		}
		return f
	}
	var open string // family of the previous sample line
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line string
		if i := strings.IndexByte(string(data), '\n'); i >= 0 {
			line, data = string(data[:i]), data[i+1:]
		} else {
			line, data = string(data), nil
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q in %s", lineNo, name, fields[1])
			}
			f := get(name)
			if fields[1] == "HELP" {
				if f.help {
					return fmt.Errorf("line %d: second HELP for %s", lineNo, name)
				}
				f.help = true
				continue
			}
			if f.typ != "" {
				return fmt.Errorf("line %d: second TYPE for %s", lineNo, name)
			}
			if f.samples > 0 {
				return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			typ := ""
			if len(fields) >= 4 {
				typ = strings.TrimSpace(fields[3])
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			f.typ = typ
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := name
		famTyp := ""
		if f, ok := families[name]; ok {
			famTyp = f.typ
		}
		// A histogram's samples live under <base>_bucket/_sum/_count.
		var histSuffix string
		if famTyp == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suf)
				if trimmed != name {
					if f, ok := families[trimmed]; ok && f.typ == "histogram" {
						base, histSuffix = trimmed, suf
						break
					}
				}
			}
		}
		f := get(base)
		if f.typ == "" {
			return fmt.Errorf("line %d: sample %s before a TYPE declaration", lineNo, name)
		}
		if f.typ == "histogram" && histSuffix == "" && base == name {
			return fmt.Errorf("line %d: bare sample %s for histogram family", lineNo, name)
		}
		if open != base {
			if f.closed {
				return fmt.Errorf("line %d: samples of %s are not contiguous", lineNo, base)
			}
			if open != "" {
				get(open).closed = true
			}
			open = base
		}
		f.samples++
		sig := name + "{" + canonLabels(labels) + "}"
		if series[sig] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, sig)
		}
		series[sig] = true

		if f.typ == "counter" || histSuffix == "_bucket" || histSuffix == "_count" {
			if value < 0 || math.IsNaN(value) {
				return fmt.Errorf("line %d: %s: counter value %v", lineNo, name, value)
			}
		}
		if f.typ != "histogram" {
			continue
		}
		// Histogram bookkeeping, keyed by base name + non-le labels.
		rest := make([]string, 0, len(labels))
		le := ""
		for _, kv := range labels {
			if kv[0] == "le" {
				le = kv[1]
				continue
			}
			rest = append(rest, kv[0]+"="+kv[1])
		}
		key := bucketKey{name: base, rest: strings.Join(rest, ",")}
		switch histSuffix {
		case "_bucket":
			if le == "" {
				return fmt.Errorf("line %d: %s_bucket without le label", lineNo, base)
			}
			ub, err := parseLE(le)
			if err != nil {
				return fmt.Errorf("line %d: %s: %w", lineNo, name, err)
			}
			if prev, ok := lastBucket[key]; ok && !(ub > prev) {
				return fmt.Errorf("line %d: %s buckets out of order (le=%s after le=%v)", lineNo, base, le, prev)
			}
			if prev, ok := lastCount[key]; ok && value < prev {
				return fmt.Errorf("line %d: %s cumulative bucket counts decrease at le=%s", lineNo, base, le)
			}
			lastBucket[key], lastCount[key] = ub, value
			if math.IsInf(ub, 1) {
				infBucket[key] = value
			}
		case "_sum":
			sumSeen[key] = true
		case "_count":
			countSeen[key] = true
			countVal[key] = value
		}
	}
	for key, f := range families {
		if f.typ != "histogram" {
			continue
		}
		// Every histogram series set must be complete and consistent.
		for k := range countVal {
			if k.name != key {
				continue
			}
			inf, ok := infBucket[k]
			if !ok {
				return fmt.Errorf("histogram %s{%s}: no le=\"+Inf\" bucket", k.name, k.rest)
			}
			if !sumSeen[k] {
				return fmt.Errorf("histogram %s{%s}: missing _sum", k.name, k.rest)
			}
			if inf != countVal[k] {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %v != _count %v", k.name, k.rest, inf, countVal[k])
			}
		}
		for k := range infBucket {
			if k.name == key && !countSeen[k] {
				return fmt.Errorf("histogram %s{%s}: missing _count", k.name, k.rest)
			}
		}
	}
	return nil
}

func parseLE(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le %q", le)
	}
	return v, nil
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (name string, labels [][2]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !metricNameRE.MatchString(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			lname := strings.TrimSpace(rest[:eq])
			if !labelNameRE.MatchString(lname) {
				return "", nil, 0, fmt.Errorf("bad label name %q", lname)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					case '\\', '"':
						val.WriteByte(rest[j])
					default:
						return "", nil, 0, fmt.Errorf("bad escape in %q", line)
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, [2]string{lname, val.String()})
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	} else {
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp in %q", line)
		}
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func canonLabels(labels [][2]string) string {
	parts := make([]string, len(labels))
	for i, kv := range labels {
		parts[i] = kv[0] + "=" + kv[1]
	}
	// Label order is not significant for series identity.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

func TestPromWriterLintClean(t *testing.T) {
	w := &prom.PromWriter{}
	w.Counter("test_reads_total", "Reads accepted.")
	w.Value(42)
	w.Gauge("test_queue_depth", "Current queue depth per session.")
	w.ValueL(3, "session", "s000001")
	w.ValueL(9, "session", "s000002")
	h := prom.NewHistogram(0.001, 0.01, 0.1)
	h.Observe(0.005)
	h.Observe(2)
	w.Histogram("test_latency_seconds", "Latency.", h)
	w.Gauge("test_uptime_seconds", `has "quotes" and \slashes`)
	w.Value(1.5)
	body, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := lintProm(body); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE test_reads_total counter",
		"# TYPE test_latency_seconds histogram",
		`test_queue_depth{session="s000001"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"sample before TYPE", "foo 1\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"unknown type", "# TYPE foo whatever\nfoo 1\n"},
		{"negative counter", "# TYPE foo counter\nfoo -1\n"},
		{"bad value", "# TYPE foo gauge\nfoo abc\n"},
		{"bad label name", "# TYPE foo gauge\nfoo{0bad=\"x\"} 1\n"},
		{"unterminated label", "# TYPE foo gauge\nfoo{a=\"x} 1\n"},
		{"interleaved families", "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\na 3\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"missing inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"inf bucket != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n"},
	}
	for _, tc := range cases {
		if err := lintProm([]byte(tc.body)); err == nil {
			t.Errorf("%s: lint accepted\n%s", tc.name, tc.body)
		}
	}
	if err := lintProm([]byte("# TYPE ok gauge\nok{a=\"b\",c=\"d\"} 1\nok 2\n\n# free comment\n")); err != nil {
		t.Errorf("clean body rejected: %v", err)
	}
}
