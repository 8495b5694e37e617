package strdist

import (
	"context"
	"math"
	"strings"
	"testing"
)

// FuzzMatcherEquivalence cross-checks every matcher implementation in the
// package on the same pair: the naive reference, the plain Sellers DP,
// the threshold-banded DP, and the bit-parallel engine. All four must
// agree bit-identically — distance, span tie-breaking, and (for the
// threshold engines) the decision. The naive matcher recovers the exact
// start Sellers' forward propagation tracks, so any divergence anywhere
// is a correctness bug in one of the engines.
func FuzzMatcherEquivalence(f *testing.F) {
	f.Add("admin", "SELECT * FROM users WHERE name='admin'", uint8(2))
	f.Add("1 OR 1=1", "SELECT * FROM t WHERE id=1 OR 1=1", uint8(2))
	f.Add("x", strings.Repeat("x", 200), uint8(1))
	f.Add("", "SELECT 1", uint8(3))
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 60), uint8(4))
	for _, c := range matcherShapes {
		f.Add(c.input, c.query, uint8(2)) // threshold 0.2, NTI's default
	}
	f.Fuzz(func(t *testing.T, input, query string, sel uint8) {
		const maxFuzzLen = 512
		if len(input) > maxFuzzLen || len(query) > maxFuzzLen {
			t.Skip()
		}
		threshold := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.8}[int(sel)%6]
		ctx := context.Background()

		plain := SubstringMatch(input, query)

		// Plain Sellers vs the naive reference: bit-identical matches
		// (kept to small shapes — the reference is O(n·m³)).
		if len(input) <= 24 && len(query) <= 48 {
			naive := NaiveSubstringMatch(input, query)
			if naive != plain {
				t.Fatalf("naive=%+v plain=%+v (input=%q query=%q)", naive, plain, input, query)
			}
			if len(input) > 0 {
				if d := Levenshtein(input, query[plain.Start:plain.End]); d != plain.Distance {
					t.Fatalf("plain span %q carries distance %d, reported %d (input=%q)",
						query[plain.Start:plain.End], d, plain.Distance, input)
				}
			}
		}

		// Threshold decision and selected span: banded vs plain-derived
		// decision.
		banded, bandedFound, _, err := SubstringMatchThresholdBudgetCtx(ctx, input, query, threshold, 0)
		if err != nil {
			t.Fatalf("banded error: %v", err)
		}
		plainFound := len(input) > 0 && len(query) > 0 && plain.Ratio() < threshold
		if bandedFound != plainFound {
			t.Fatalf("threshold decision: banded=%v plain=%v (input=%q query=%q th=%v plain match=%+v)",
				bandedFound, plainFound, input, query, threshold, plain)
		}
		if bandedFound && banded != plain {
			t.Fatalf("span tie-breaking: banded=%+v plain=%+v (input=%q query=%q th=%v)",
				banded, plain, input, query, threshold)
		}

		// Bit-parallel engine vs banded: identical decisions, bit-identical
		// matches when found.
		bp, bpFound, _, err := BitParallelThresholdBudgetCtx(ctx, input, query, threshold, 0)
		if err != nil {
			t.Fatalf("bitparallel error: %v", err)
		}
		if bpFound != bandedFound {
			t.Fatalf("bitparallel decision=%v banded=%v (input=%q query=%q th=%v)",
				bpFound, bandedFound, input, query, threshold)
		}
		if bpFound && bp != banded {
			t.Fatalf("bitparallel match=%+v banded=%+v (input=%q query=%q th=%v)",
				bp, banded, input, query, threshold)
		}
	})
}

// FuzzAnchoredReverse checks the reverse pass against brute force: for
// every length c, the score must be the minimum over the allowed ends e
// in [first, last] of Levenshtein(input, query[last−c:e]), and reach the
// largest c scoring d. Inputs run to 200 bytes, so one-word and
// multi-word patterns are both exercised.
func FuzzAnchoredReverse(f *testing.F) {
	for _, c := range matcherShapes {
		f.Add(c.input, c.query, uint16(len(c.query)-1), uint8(2), uint8(len(c.input)/5))
	}
	f.Add("abc", "xxabcxx", uint16(5), uint8(0), uint8(0))
	f.Add(strings.Repeat("ab", 70), strings.Repeat("ba", 90), uint16(170), uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, input, query string, lastSel uint16, run, dSel uint8) {
		n := len(input)
		if n == 0 || n > 200 || len(query) == 0 || len(query) > 256 {
			t.Skip()
		}
		last := 1 + int(lastSel)%len(query)
		first := max(1, last-int(run)%4)
		d := int(dSel) % (n + 1)
		width := last
		dists := make([]int, width+1)
		reach, err := anchoredReverse(context.Background(), input, query, first, last, width, d, nil, dists)
		if err != nil {
			t.Fatal(err)
		}
		wantReach := 0
		for c := 0; c <= width; c++ {
			want := math.MaxInt
			for e := max(first, last-c); e <= last; e++ {
				want = min(want, Levenshtein(input, query[last-c:e]))
			}
			if dists[c] != want {
				t.Fatalf("c=%d: score %d, brute force %d (input=%q query=%q first=%d last=%d)",
					c, dists[c], want, input, query, first, last)
			}
			if want == d {
				wantReach = c
			}
		}
		if reach != wantReach {
			t.Fatalf("reach %d, brute force %d (input=%q query=%q first=%d last=%d d=%d)",
				reach, wantReach, input, query, first, last, d)
		}
	})
}
