package testbed

import (
	"context"
	"fmt"

	"joza"
	"joza/internal/baseline"
	"joza/internal/evasion"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/webapp"
)

// BaselineRow is one detector's scorecard in the related-work comparison.
type BaselineRow struct {
	Name string
	// Detection counts over the 50 plugins.
	Originals  int
	NTIMutants int
	PTIMutants int
	Total      int
	// FalsePositives over the SQL-prose benign corpus.
	FalsePositives int
	FPTotal        int
}

// ptiDetector adapts the PTI analyzer to the baseline.Detector interface.
type ptiDetector struct {
	analyzer *pti.Analyzer
}

func (ptiDetector) Name() string { return "pti" }

func (d ptiDetector) Detect(query string, _ []nti.Input) bool {
	return d.analyzer.Analyze(query, nil).Attack
}

// guardDetector adapts the full hybrid Guard.
type guardDetector struct {
	guard *joza.Guard
}

func (guardDetector) Name() string { return "joza-hybrid" }

func (d guardDetector) Detect(query string, inputs []nti.Input) bool {
	// An in-process check under context.Background() cannot fail.
	v, _ := d.guard.Check(context.Background(), joza.Request{Query: query, Inputs: inputs})
	return v.Attack
}

// proseCorpus contains benign inputs that merely talk about SQL — the
// classic WAF false-positive trap. They contain no quotes, so they stay
// inside the quoted string literal of the target query.
var proseCorpus = []string{
	"In math class we learned that 1 or 1=1 is just true",
	"please select one from the list below",
	"I sleep (a lot) on weekends and union meetings run late",
	"insert coin to continue playing",
	"she said -- and I quote -- nothing at all",
	"update: the delete key on my laptop is broken",
}

// builtQuery reproduces what the application would send to the database
// for payload: transport-encode, apply the WordPress-wide transforms in
// order, then the plugin's own decode and query construction.
func (l *Lab) builtQuery(s *Spec, payload string) string {
	v := s.TransportValue(payload)
	v = webapp.TrimWhitespace(v)
	v = webapp.MagicQuotes(v)
	return s.BuildQuery(v)
}

// EvaluateBaselines scores the related-work detectors (signature WAF,
// CANDID-style shadow queries) against Joza's own components and the
// hybrid, over the original exploits, both mutation families, and the
// false-positive prose corpus.
func (l *Lab) EvaluateBaselines() ([]BaselineRow, error) {
	tl := evasion.NewTaintless(l.Fragments)
	detectors := []baseline.Detector{
		baseline.NewRegexWAF(),
		baseline.Candid{},
		baseline.NTIDetector{Analyzer: nti.MustNew()},
		ptiDetector{analyzer: pti.New(l.Fragments)},
		guardDetector{guard: l.Guard},
	}

	type testCase struct {
		query  string
		inputs []nti.Input
	}
	var originals, ntiMutants, ptiMutants []testCase
	for _, s := range l.Specs {
		mk := func(payload string) testCase {
			return testCase{
				query: l.builtQuery(s, payload),
				inputs: []nti.Input{
					{Source: "get", Name: s.Param, Value: s.TransportValue(payload)},
				},
			}
		}
		originals = append(originals, mk(s.Exploit))
		ntiPayload, _ := l.ntiMutation(s)
		ntiMutants = append(ntiMutants, mk(ntiPayload))
		rewritten, ok := tl.Evade(s.Exploit)
		if !ok {
			rewritten = s.Exploit
		}
		ptiMutants = append(ptiMutants, mk(rewritten))
	}

	// FP corpus against a quoted-context endpoint.
	quoted := l.SpecByName("gd-star-rating")
	if quoted == nil {
		return nil, fmt.Errorf("missing quoted spec for FP corpus")
	}
	var benign []testCase
	for _, prose := range proseCorpus {
		benign = append(benign, testCase{
			query: l.builtQuery(quoted, prose),
			inputs: []nti.Input{
				{Source: "get", Name: quoted.Param, Value: prose},
			},
		})
	}

	var rows []BaselineRow
	for _, d := range detectors {
		row := BaselineRow{Name: d.Name(), Total: len(l.Specs), FPTotal: len(benign)}
		count := func(cases []testCase) int {
			n := 0
			for _, c := range cases {
				if d.Detect(c.query, c.inputs) {
					n++
				}
			}
			return n
		}
		row.Originals = count(originals)
		row.NTIMutants = count(ntiMutants)
		row.PTIMutants = count(ptiMutants)
		row.FalsePositives = count(benign)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBaselines renders the comparison table.
func FormatBaselines(rows []BaselineRow) string {
	out := "BASELINE COMPARISON (related-work detectors vs Joza)\n"
	out += fmt.Sprintf("%-14s %12s %12s %12s %16s\n",
		"Detector", "Originals", "NTI-mutants", "PTI-mutants", "False positives")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %7d/%-4d %7d/%-4d %7d/%-4d %11d/%-4d\n",
			r.Name, r.Originals, r.Total, r.NTIMutants, r.Total,
			r.PTIMutants, r.Total, r.FalsePositives, r.FPTotal)
	}
	out += "(signature WAFs false-positive on SQL-shaped prose and miss encoded payloads;\n" +
		" shadow-query comparison shares NTI's transformation blindness; only the hybrid\n" +
		" detects every working exploit form with zero false positives)\n"
	return out
}
