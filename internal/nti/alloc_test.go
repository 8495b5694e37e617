package nti

import (
	"context"
	"strings"
	"testing"
)

// TestBenignChecksAllocateNothing pins lazy attribution: an NTI check
// whose inputs match nothing builds no "source:name" label and keeps its
// input groups on the stack, so it allocates nothing — one input or a
// few, rejected by the prefilter or by the matcher.
func TestBenignChecksAllocateNothing(t *testing.T) {
	const q = "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC"
	junk := strings.Repeat("x", 40)
	for _, tc := range []struct {
		name   string
		opts   []Option
		inputs []Input
	}{
		{"single input, prefilter reject", nil, []Input{{Source: "get", Name: "x", Value: junk}}},
		{"single input, matcher miss", []Option{WithoutPrefilter()}, []Input{{Source: "get", Name: "x", Value: junk}}},
		{"mirrored inputs, prefilter reject", nil, []Input{
			{Source: "get", Name: "x", Value: junk},
			{Source: "cookie", Name: "x", Value: junk},
			{Source: "get", Name: "page", Value: "7"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := MustNew(tc.opts...)
			ctx := context.Background()
			if res, err := a.AnalyzeCtx(ctx, q, nil, tc.inputs, nil); err != nil || res.Attack || len(res.Markings) != 0 {
				t.Fatalf("benign inputs matched: %+v, %v", res, err)
			}
			if raceEnabled {
				t.Skip("sync.Pool drops items under the race detector")
			}
			if n := testing.AllocsPerRun(200, func() { _, _ = a.AnalyzeCtx(ctx, q, nil, tc.inputs, nil) }); n != 0 {
				t.Fatalf("benign NTI check allocates %.1f times, want 0", n)
			}
		})
	}
}
