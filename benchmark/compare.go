package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	// Unresolved: the medians are within the bound of each other, but the runs
	// of one side are further apart than the bound, so "unchanged" cannot be
	// claimed from them.
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // a per-layer metric: no bound, shown for attribution
)

// side is one side of a comparison: one document, or several runs of the
// same kind — on a shared box a single run can be a quarter off, so a side is
// best made of ten runs on ten seeds, as the driver does it.
type side struct {
	docs []*document
}

func readSide(arg string) (*side, error) {
	s := &side{}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(s.docs) > 0 && !sameKind(s.docs[0], &d) {
			return nil, fmt.Errorf("%s comes from a different kind of run than %s", path, strings.Split(arg, ",")[0])
		}
		s.docs = append(s.docs, &d)
	}
	return s, nil
}

func sameKind(a, b *document) bool {
	return a.Trace == b.Trace && a.Quick == b.Quick && a.Seconds == b.Seconds
}

// metric returns the side's figure for one metric of one workload — the
// median over its runs — and how far apart the runs are, as a share: the
// quartile spread over the median with four runs or more, as the driver
// takes it; with fewer, the largest spread a run reports about itself.
func (s *side) metric(workload, name string) (value, spread float64, ok bool) {
	var vs []float64
	for _, d := range s.docs {
		for _, r := range d.Results {
			m, has := r.Metrics[name]
			if r.Workload != workload || !has {
				continue
			}
			vs = append(vs, m.Value)
			if m.SpreadPct != nil {
				spread = max(spread, *m.SpreadPct/100)
			}
		}
	}
	if len(vs) == 0 {
		return 0, 0, false
	}
	value = median(vs)
	if len(vs) >= 4 && value != 0 {
		q1, q3 := quartiles(vs)
		spread = (q3 - q1) / value
	}
	return value, spread, true
}

// failedShare is failed over attempted ops of a workload across the runs.
func (s *side) failedShare(workload string) float64 {
	var attempted, failed int64
	for _, d := range s.docs {
		for _, r := range d.Results {
			if r.Workload == workload {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// quartiles returns the first and third quartile of vs (at least two
// values) as Python's statistics.quantiles(vs, n=4) does.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(pos float64) float64 { // 1-based position among the sorted values
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	n := float64(len(s))
	return at((n + 1) / 4), at(3 * (n + 1) / 4)
}

// judge applies one metric's direction and bound to a base and a current
// value: worse than the bound is a regression; otherwise a spread beyond the
// bound on either side leaves the pair unresolved.
func judge(better string, bound, base, cur, spread float64) string {
	worse := 0.0
	if base != 0 {
		worse = (cur - base) / base
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > bound:
		return verdictRegression
	case spread > bound:
		return verdictUnresolved
	case worse < -bound:
		return verdictImproved
	}
	return verdictOK
}

// compareFiles prints one row per (workload, metric) both sides report —
// base, current, ratio, bound, verdict — taking direction and bound from the
// contract at specPath, and reports whether anything regressed: a metric
// worse than its bound, or a larger share of failed ops. Each side is one
// document or a comma-separated list of them.
func compareFiles(w io.Writer, specPath, baseArg, curArg string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readSide(baseArg)
	if err != nil {
		return false, err
	}
	cur, err := readSide(curArg)
	if err != nil {
		return false, err
	}
	if !sameKind(base.docs[0], cur.docs[0]) {
		return false, fmt.Errorf("the two sides come from different kinds of run (trace, quick or seconds differ)")
	}
	fmt.Fprintf(w, "base: %d run(s), current: %d run(s)\n", len(base.docs), len(cur.docs))
	fmt.Fprintf(w, "%-17s %-34s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "current", "ratio", "spread", "bound", "verdict")
	for _, wl := range workloadSpecs { // all the program runs, gated by the driver or not
		reported := false
		for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				bv, bs, ok1 := base.metric(wl.name, m.Name)
				cv, cs, ok2 := cur.metric(wl.name, m.Name)
				if !ok1 || !ok2 {
					continue
				}
				reported = true
				ratio := 0.0
				if bv != 0 {
					ratio = cv / bv
				}
				verdict, bound := verdictInfo, "-"
				if m.Bound > 0 {
					verdict = judge(m.Better, m.Bound, bv, cv, max(bs, cs))
					bound = fmt.Sprintf("%.3f", m.Bound)
					regressed = regressed || verdict == verdictRegression
				}
				fmt.Fprintf(w, "%-17s %-34s %14.4f %14.4f %8.4f %7.3f %7s  %s\n", wl.name, m.Name, bv, cv, ratio, max(bs, cs), bound, verdict)
			}
		}
		if !reported {
			continue
		}
		bs, cs := base.failedShare(wl.name), cur.failedShare(wl.name)
		verdict := verdictOK
		if cs > bs {
			verdict, regressed = verdictRegression, true
		}
		fmt.Fprintf(w, "%-17s %-34s %14.6f %14.6f %8s %7s %7s  %s\n", wl.name, "failed-op share", bs, cs, "", "", "0", verdict)
	}
	return regressed, nil
}
