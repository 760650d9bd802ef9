package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): a minimal, dependency-
// free writer for the metric families the RAID engine exports, plus the
// /metrics HTTP handler NewMux mounts next to /stats. The writer validates
// metric and label names and escapes label values, so a malformed family is
// an error the handler reports instead of silently emitting output a scraper
// rejects.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// A Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// PromWriter accumulates one exposition. Errors are sticky: the first
// invalid name or write failure is kept and reported by Err.
type PromWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

// Err returns the first error the writer hit, nil if the exposition is valid.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) setErr(err error) {
	if p.err == nil {
		p.err = err
	}
}

// ValidPromName reports whether s is a legal metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func ValidPromName(s string) bool { return validPromIdent(s, true) }

// validPromIdent checks a metric name (colons allowed) or label name.
func validPromIdent(s string, colons bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && colons:
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapePromLabel escapes a label value per the exposition format.
func escapePromLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Family declares a metric family's HELP and TYPE once; repeat declarations
// of the same name are ignored so callers can group samples freely.
func (p *PromWriter) Family(name, help, typ string) {
	if p.err != nil {
		return
	}
	if !ValidPromName(name) {
		p.setErr(fmt.Errorf("obs: invalid metric name %q", name))
		return
	}
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		p.setErr(fmt.Errorf("obs: invalid metric type %q for %s", typ, name))
		return
	}
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	// HELP text may not contain newlines unescaped.
	help = strings.ReplaceAll(help, "\n", " ")
	if _, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
		p.setErr(err)
	}
}

// sample emits one pre-formatted-value sample line.
func (p *PromWriter) sample(name string, labels []Label, value string) {
	if p.err != nil {
		return
	}
	if !ValidPromName(name) {
		p.setErr(fmt.Errorf("obs: invalid metric name %q", name))
		return
	}
	var b bytes.Buffer
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if !validPromIdent(l.Name, false) {
				p.setErr(fmt.Errorf("obs: invalid label name %q on %s", l.Name, name))
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapePromLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	if _, err := p.w.Write(b.Bytes()); err != nil {
		p.setErr(err)
	}
}

// Sample emits one sample line. Labels may be nil.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	p.sample(name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// SampleInt is Sample for integer-valued metrics (exact formatting, no
// float rounding at 2^53).
func (p *PromWriter) SampleInt(name string, labels []Label, v int64) {
	p.sample(name, labels, strconv.FormatInt(v, 10))
}

// WriteHistogramSummary emits a latency histogram as a Prometheus summary:
// quantile-labelled gauges in seconds plus _sum and _count, the shape
// Grafana latency panels expect. The quantiles are the log₂-bucket upper
// bound estimates of HistogramSnapshot.
func (p *PromWriter) WriteHistogramSummary(name, help string, labels []Label, h HistogramSnapshot) {
	p.Family(name, help, "summary")
	for _, q := range [...]struct {
		q  string
		ns int64
	}{{"0.5", h.P50Nanos}, {"0.95", h.P95Nanos}, {"0.99", h.P99Nanos}, {"0.999", h.P999Nanos}} {
		ql := append(append([]Label(nil), labels...), Label{"quantile", q.q})
		p.Sample(name, ql, float64(q.ns)/1e9)
	}
	p.Sample(name+"_sum", labels, float64(h.SumNanos)/1e9)
	p.SampleInt(name+"_count", labels, h.Count)
}

// PromHandler serves the exposition produced by collect. The collection is
// buffered so a failed collect yields a clean 500 instead of a truncated
// scrape, and collect runs per request so values are always live.
func PromHandler(collect func(*PromWriter)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		pw := NewPromWriter(&buf)
		collect(pw)
		if err := pw.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		_, _ = w.Write(buf.Bytes())
	})
}
