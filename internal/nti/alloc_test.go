package nti

import (
	"context"
	"strings"
	"testing"

	"joza/internal/core"
)

// TestBenignChecksAllocateNothing pins lazy attribution: an NTI check
// whose inputs match nothing builds no "source:name" label and keeps its
// input groups on the stack, so it allocates nothing — one input or a
// few, rejected by the prefilter or by the matcher. A benign input that
// does match makes NTI lex the query lazily (unless it matches only
// digits); lexed into presized storage, that lex allocates nothing either.
// The matched spans and the markings gather in the check's stack storage,
// and a marking keeps the input's source and name apart, so a matched
// single input allocates only its exact-size markings slice, whether the
// check lexes or is handed the tokens.
func TestBenignChecksAllocateNothing(t *testing.T) {
	const q = "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC"
	junk := strings.Repeat("x", 40)
	for _, tc := range []struct {
		name    string
		opts    []Option
		inputs  []Input
		matches bool
	}{
		{"single input, prefilter reject", nil, []Input{{Source: "get", Name: "x", Value: junk}}, false},
		{"single input, matcher miss", []Option{WithoutPrefilter()}, []Input{{Source: "get", Name: "x", Value: junk}}, false},
		{"mirrored inputs, prefilter reject", nil, []Input{
			{Source: "get", Name: "x", Value: junk},
			{Source: "cookie", Name: "x", Value: junk},
			{Source: "get", Name: "page", Value: "7"},
		}, false},
		{"matched input, lexed into presized storage", nil, []Input{{Source: "get", Name: "table", Value: "posts"}}, true},
		{"matched digits, not lexed", nil, []Input{{Source: "get", Name: "id", Value: "42"}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := MustNew(tc.opts...)
			ctx := context.Background()
			buf := a.Dialect().Lex(q)
			var res core.Result
			err := a.AnalyzeBuf(ctx, q, nil, &buf, tc.inputs, nil, &res)
			if err != nil || res.Attack || (len(res.Markings) > 0) != tc.matches {
				t.Fatalf("benign inputs: %+v, %v", res, err)
			}
			if raceEnabled {
				t.Skip("sync.Pool drops items under the race detector")
			}
			want := 0.0
			if tc.matches {
				want = 1 // the markings slice
				toks := a.Dialect().Lex(q)
				if n := testing.AllocsPerRun(200, func() { _ = a.AnalyzeBuf(ctx, q, toks, &buf, tc.inputs, nil, &res) }); n != want {
					t.Fatalf("benign NTI check handed the tokens allocates %.1f times, want %.1f", n, want)
				}
			}
			if n := testing.AllocsPerRun(200, func() { _ = a.AnalyzeBuf(ctx, q, nil, &buf, tc.inputs, nil, &res) }); n != want {
				t.Fatalf("benign NTI check allocates %.1f times, want %.1f", n, want)
			}
		})
	}
}

// TestEvidenceSlicesExactSize: an NTI result's reasons are nil when there
// are none and have capacity equal to length otherwise, also when several
// markings from several inputs contribute them; a warm attack check
// allocates its reasons once.
func TestEvidenceSlicesExactSize(t *testing.T) {
	const q = "SELECT * FROM posts WHERE id=-1 UNION SELECT user_pass FROM users WHERE 1=1 OR 2=2"
	a := MustNew()
	for _, tc := range []struct {
		name    string
		inputs  []Input
		reasons int
		// allocs of a warm check: one exact-size markings slice and, for
		// an attack, the label of each flagging input and one exact-size
		// reason slice.
		allocs float64
	}{
		{"no inputs", nil, 0, 0},
		{"benign match", []Input{{Source: "get", Name: "table", Value: "posts"}}, 0, 1},
		{"one attack input", []Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT user_pass FROM users"}}, 4, 3},
		{"two attack inputs", []Input{
			{Source: "get", Name: "id", Value: "-1 UNION SELECT user_pass FROM users"},
			{Source: "get", Name: "w", Value: "1=1 OR 2=2"},
		}, 7, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := a.Analyze(q, nil, tc.inputs)
			if len(res.Reasons) != tc.reasons || res.Attack != (tc.reasons > 0) {
				t.Fatalf("got %d reasons (attack %v), want %d: %+v", len(res.Reasons), res.Attack, tc.reasons, res.Reasons)
			}
			if tc.reasons == 0 && res.Reasons != nil {
				t.Fatalf("empty reasons are not nil")
			}
			if cap(res.Reasons) != len(res.Reasons) {
				t.Fatalf("reasons len %d cap %d", len(res.Reasons), cap(res.Reasons))
			}
			if raceEnabled {
				return
			}
			toks := a.Dialect().Lex(q)
			buf := toks
			if n := testing.AllocsPerRun(100, func() {
				_ = a.AnalyzeBuf(context.Background(), q, toks, &buf, tc.inputs, nil, &res)
			}); n != tc.allocs {
				t.Fatalf("warm check allocates %.1f times, want %.1f", n, tc.allocs)
			}
		})
	}
}
