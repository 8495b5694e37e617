package nti

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/trace"
)

// sourceLabelOracle is how NTI rendered a marking's attribution before a
// marking kept an input's source and name apart: the "source:name" key of
// each input carrying the value, comma-joined. FuzzMarkingLabel holds the
// markings' Label to it.
func sourceLabelOracle(members []Input) string {
	keys := make([]string, len(members))
	for i, in := range members {
		keys[i] = in.Source + ":" + in.Name
	}
	return strings.Join(keys, ",")
}

// FuzzMarkingLabel checks every marking's Label, every reason's Input and
// every traced input's Source against the oracle. Three inputs take one
// of two values each, so values are mirrored across inputs, and sources
// and names carry colons, commas and empty strings. The markings of a
// group of inputs sharing a value are those of analyzing the group alone,
// and the whole check's markings and reasons are the groups' in order.
func FuzzMarkingLabel(f *testing.F) {
	const q = "SELECT * FROM posts WHERE id=42 AND title='x' OR 1=1 LIMIT 5"
	f.Add(q, "get", "id", "post", "title", "cookie", "c", "42", "x' OR 1=1", uint8(0b0010))
	f.Add(q, "get", "", "post", "", "get", "", "42", "1=1", uint8(0b0000))
	f.Add(q, "a:b", "c", "a", "b:c", "a,b", "c,d", "posts", "LIMIT", uint8(0b0110))
	f.Add(q, "", "", ":", ",", "header", "x,y", "OR 1=1", "42", uint8(0b0101))
	f.Add("SELECT 1", "get", "q", "post", "q", "get", "q", "needle", "other", uint8(0b1000))
	f.Add(q, "get", "id", "get", "id", "post", "id", "42 AND title", "", uint8(0b1011))
	// More markings than the check's stack holds.
	f.Add(strings.Repeat("SELECT x, ", 12), "get", "a", "post", "b", "get", "a,b", "x", "SELECT", uint8(0b0010))
	f.Fuzz(func(t *testing.T, query, s1, n1, s2, n2, s3, n3, v1, v2 string, layout uint8) {
		if len(query) > 1024 || len(v1) > 256 || len(v2) > 256 {
			return
		}
		if layout&8 != 0 {
			query += " " + v1 + " " + v2
		}
		vals := [2]string{v1, v2}
		inputs := []Input{
			{Source: s1, Name: n1, Value: vals[layout&1]},
			{Source: s2, Name: n2, Value: vals[layout>>1&1]},
			{Source: s3, Name: n3, Value: vals[layout>>2&1]},
		}
		a := New()
		tr := trace.New(trace.Config{SampleEvery: 1})
		span := tr.Start(query)
		res, err := a.AnalyzeCtx(context.Background(), query, nil, inputs, span)
		if err != nil {
			t.Skip("over budget")
		}
		groups, next := dedupInputs(nil, nil, inputs)
		if len(span.Inputs) != len(groups) {
			t.Fatalf("%d traced inputs, %d groups", len(span.Inputs), len(groups))
		}
		var marks []core.Marking
		var reasons []core.Reason
		for gi, g := range groups {
			var members []Input
			for i := g.first; ; i = next[i] {
				members = append(members, inputs[i])
				if i == g.last {
					break
				}
			}
			label := sourceLabelOracle(members)
			if got := span.Inputs[gi].Source; got != label {
				t.Fatalf("group %d traced as %q, want %q", gi, got, label)
			}
			alone := a.Analyze(query, nil, members)
			for _, m := range alone.Markings {
				if m.Label() != label {
					t.Fatalf("group %d marking %+v labelled %q, want %q", gi, m, m.Label(), label)
				}
			}
			for _, r := range alone.Reasons {
				if r.Input != label {
					t.Fatalf("group %d reason attributed to %q, want %q", gi, r.Input, label)
				}
			}
			marks = append(marks, alone.Markings...)
			reasons = append(reasons, alone.Reasons...)
		}
		if !reflect.DeepEqual(res.Markings, marks) || !reflect.DeepEqual(res.Reasons, reasons) {
			t.Fatalf("check's evidence differs from its groups':\nmarkings %+v\nwant     %+v\nreasons  %+v\nwant     %+v",
				res.Markings, marks, res.Reasons, reasons)
		}
		if cap(res.Markings) != len(res.Markings) {
			t.Fatalf("markings len %d cap %d", len(res.Markings), cap(res.Markings))
		}
	})
}
