package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
)

// Metrics fetches the raw /metrics exposition.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", hres.Status)
	}
	return io.ReadAll(hres.Body)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+-?\d+)?$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// ValidateExposition checks that body parses as Prometheus text exposition
// format 0.0.4: well-formed HELP/TYPE comments, samples of the form
// name{labels} value, every sample's family declared by a preceding TYPE
// line, and finite or ±Inf/NaN float values. It returns the first offense.
func ValidateExposition(body []byte) error {
	typed := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
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
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !metricNameRe.MatchString(fields[2]) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if !familyDeclared(typed, name) {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		if labels != "" {
			for _, lab := range splitLabels(labels) {
				if !labelRe.MatchString(lab) {
					return fmt.Errorf("line %d: malformed label %q", lineNo, lab)
				}
			}
		}
		switch value {
		case "+Inf", "-Inf", "NaN":
		default:
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				return fmt.Errorf("line %d: bad value %q", lineNo, value)
			}
		}
	}
	return sc.Err()
}

// familyDeclared matches a sample name against declared families, allowing
// the summary/histogram suffixes.
func familyDeclared(typed map[string]string, name string) bool {
	if _, ok := typed[name]; ok {
		return true
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t := typed[base]; t == "summary" || t == "histogram" {
				return true
			}
		}
	}
	return false
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
