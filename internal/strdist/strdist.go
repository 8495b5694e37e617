// Package strdist implements the approximate string-matching primitives
// used by negative taint inference (NTI).
//
// NTI must find, for each application input, the substring of the SQL query
// that is closest to the input in edit distance, and decide whether the
// "difference ratio" — edit distance divided by the length of the matched
// query substring — is below a threshold. A ratio of zero means the input
// appears verbatim in the query.
//
// Two matchers are provided:
//
//   - SubstringMatch: Sellers' algorithm, a dynamic program over the query
//     with a free start position, running in O(len(input)·len(query)) time
//     and O(len(input)) extra memory per column pair. This is the optimized
//     matcher Joza uses in production.
//   - NaiveSubstringMatch: the textbook O(n²·m²) formulation that compares
//     every query substring to the input with full-matrix Levenshtein. It is
//     retained as the ablation baseline for the paper's discussion of NTI
//     cost (Section III-A) and is used only by benchmarks and tests.
package strdist

import (
	"context"
	"errors"
	"sync"
)

// ErrBudget is returned by the budgeted matchers when the dynamic program
// exceeded its cell budget before finishing. It bounds the work one
// hostile input/query pair can extract from the O(n·m) DP — an
// algorithmic-complexity cap, distinct from a context deadline, so a
// saturated host still cuts oversized matches off deterministically.
var ErrBudget = errors.New("strdist: DP cell budget exhausted")

// ctxCheckMask throttles context polling inside the DP loops: the done
// channel is sampled once every ctxCheckMask+1 query columns, so a
// canceled context stops a long match within a few thousand cell updates
// while the uncancelable path (ctx.Done() == nil) pays a single nil check
// per column block.
const ctxCheckMask = 255

// rowPool recycles the DP rows of every matcher in this package. All four
// matchers slice one pooled buffer into their rows, so steady-state
// matching performs zero heap allocations — the per-query cost Joza's
// Section VI optimizations target.
var rowPool = sync.Pool{
	New: func() any {
		s := make([]int, 0, 512)
		return &s
	},
}

// getRows returns a pooled []int of length n (contents undefined) and the
// pool token to hand back via putRows.
func getRows(n int) (*[]int, []int) {
	p := rowPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	buf := (*p)[:n]
	return p, buf
}

func putRows(p *[]int) { rowPool.Put(p) }

// Levenshtein returns the edit distance between a and b using unit costs for
// insertion, deletion and substitution. It uses two rolling rows, so memory
// is O(min side handled by caller); time is O(len(a)·len(b)).
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Keep the inner dimension (row width) as the shorter string.
	if len(b) > len(a) {
		a, b = b, a
	}
	tok, buf := getRows(2 * (len(b) + 1))
	defer putRows(tok)
	prev := buf[: len(b)+1 : len(b)+1]
	cur := buf[len(b)+1:]
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution / match
			if d := prev[j] + 1; d < m { // deletion from a
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insertion into a
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Match describes the best approximate occurrence of an input inside a query.
type Match struct {
	// Start and End delimit the matched query substring, query[Start:End).
	Start int
	End   int
	// Distance is the edit distance between the input and the matched
	// substring.
	Distance int
}

// Ratio returns the difference ratio of the match: edit distance divided by
// the length of the matched query substring. An empty match yields +Inf-like
// behaviour via a ratio greater than any threshold (returns 1e9).
func (m Match) Ratio() float64 {
	n := m.End - m.Start
	if n <= 0 {
		return 1e9
	}
	return float64(m.Distance) / float64(n)
}

// SubstringMatch finds the substring of query with minimum edit distance to
// input, using Sellers' approximate matching algorithm: a Levenshtein DP in
// which row 0 is all zeros (a match may begin at any query position) and the
// answer is the minimum of the last row (a match may end at any position).
//
// Ties on distance are broken in favour of the longest matched substring,
// which minimizes the difference ratio, and then the earliest end position.
// The returned Match reports the matched span and distance. If input is
// empty, a zero-length match at position 0 with distance 0 is returned.
func SubstringMatch(input, query string) Match {
	m, _ := SubstringMatchCtx(context.Background(), input, query)
	return m
}

// SubstringMatchCtx is SubstringMatch with cooperative cancellation: the
// DP loop polls ctx every few hundred query columns and returns ctx's
// error mid-match. A context that cannot be canceled (ctx.Done() == nil,
// e.g. context.Background()) adds no per-column work.
func SubstringMatchCtx(ctx context.Context, input, query string) (Match, error) {
	return substringMatchBudget(ctx, input, query, 0)
}

// substringMatchBudget is the Sellers DP core. maxCells > 0 bounds the
// number of DP cells computed; exceeding it returns ErrBudget. The budget
// is charged per column (the row width), so the check adds one compare per
// column, not per cell.
func substringMatchBudget(ctx context.Context, input, query string, maxCells int) (Match, error) {
	n := len(input)
	m := len(query)
	if n == 0 {
		return Match{}, nil
	}
	if m == 0 {
		return Match{Distance: n}, nil
	}
	done := ctx.Done()
	// dp[i] = edit distance between input[:i] and the best-ending-here
	// suffix of query[:j]. start[i] = start index in query of that match.
	w := n + 1
	tok, buf := getRows(4 * w)
	defer putRows(tok)
	dp := buf[0*w : 1*w : 1*w]
	start := buf[1*w : 2*w : 2*w]
	ndp := buf[2*w : 3*w : 3*w]
	nstart := buf[3*w : 4*w : 4*w]
	for i := 0; i <= n; i++ {
		dp[i] = i
		start[i] = 0
	}
	best := Match{Start: 0, End: 0, Distance: dp[n]}
	cells := 0
	for j := 1; j <= m; j++ {
		if done != nil && j&ctxCheckMask == 0 {
			select {
			case <-done:
				return Match{}, ctx.Err()
			default:
			}
		}
		if maxCells > 0 {
			if cells += n; cells > maxCells {
				return Match{}, ErrBudget
			}
		}
		ndp[0] = 0
		nstart[0] = j // a match starting at j (empty prefix consumed)
		qc := query[j-1]
		for i := 1; i <= n; i++ {
			cost := 1
			if input[i-1] == qc {
				cost = 0
			}
			// diagonal: extend match by consuming input[i-1] and query[j-1]
			d := dp[i-1] + cost
			s := start[i-1]
			// up: delete input[i-1] (input char unmatched)
			if v := ndp[i-1] + 1; v < d {
				d = v
				s = nstart[i-1]
			}
			// left: insert query[j-1] (extra query char inside match)
			if v := dp[i] + 1; v < d {
				d = v
				s = start[i]
			}
			ndp[i] = d
			nstart[i] = s
		}
		dp, ndp = ndp, dp
		start, nstart = nstart, start
		// Candidate match ending at j.
		cand := Match{Start: start[n], End: j, Distance: dp[n]}
		if better(cand, best) {
			best = cand
		}
	}
	return best, nil
}

// better reports whether a is a strictly better match than b: lower distance
// wins; on equal distance the longer matched substring wins (lower ratio);
// on equal length the earlier end wins.
func better(a, b Match) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	al, bl := a.End-a.Start, b.End-b.Start
	if al != bl {
		return al > bl
	}
	return a.End < b.End
}

// SubstringMatchThreshold is the threshold-aware variant of
// SubstringMatch used by NTI: it looks for a substring of query whose
// difference ratio against input is strictly below threshold, and abandons
// work that provably cannot produce one.
//
// Any qualifying match has distance < threshold·len(matched) ≤
// threshold·len(query), so the DP is run with a distance cap kMax =
// ⌊threshold·len(query)⌋ and Ukkonen's last-active-cell cut-off: rows past
// the deepest cell still within the cap are abandoned, because the
// diagonal monotonicity of the unit-cost edit DP guarantees every later
// value in those rows stays above the cap — even a perfect remaining
// suffix cannot push the ratio back under threshold. Expected cost drops
// from O(n·m) to O(kMax·m); for long non-matching inputs (the case the
// exact-substring fast path does not catch) this skips most of the table.
//
// found reports whether the returned match's ratio is below threshold;
// when found is false the returned Match carries the best capped candidate
// seen and is not meaningful. pruned reports whether the cut-off actually
// skipped work (the "early exit" counted by joza.Metrics).
//
// When found is true the match is identical to what SubstringMatch would
// select among qualifying candidates: every cell on an optimal path of a
// qualifying match holds a value within the cap, so the banded DP computes
// those candidates exactly and applies the same tie-breaking.
func SubstringMatchThreshold(input, query string, threshold float64) (m Match, found, pruned bool) {
	m, found, pruned, _ = SubstringMatchThresholdCtx(context.Background(), input, query, threshold)
	return m, found, pruned
}

// SubstringMatchThresholdCtx is SubstringMatchThreshold with cooperative
// cancellation: the banded DP polls ctx every few hundred query columns —
// the cancellation checkpoint for long NTI matches — and returns ctx's
// error mid-match. An uncancelable ctx adds no per-column work.
func SubstringMatchThresholdCtx(ctx context.Context, input, query string, threshold float64) (m Match, found, pruned bool, err error) {
	return SubstringMatchThresholdBudgetCtx(ctx, input, query, threshold, 0)
}

// SubstringMatchThresholdBudgetCtx is SubstringMatchThresholdCtx with a
// work budget: maxCells > 0 caps the DP cells this match may compute
// (counting the band actually walked, so pruned columns charge only their
// band width), and the match returns ErrBudget once the cap is crossed.
// maxCells <= 0 means unlimited. NTI uses this to bound the cost one
// hostile input/query pair can extract regardless of wall-clock deadline.
func SubstringMatchThresholdBudgetCtx(ctx context.Context, input, query string, threshold float64, maxCells int) (m Match, found, pruned bool, err error) {
	n := len(input)
	mq := len(query)
	if n == 0 {
		return Match{}, false, false, nil
	}
	if mq == 0 {
		return Match{Distance: n}, false, false, nil
	}
	kMax := int(threshold * float64(mq))
	if kMax >= n {
		// The cap cannot prune anything (dp values never exceed n);
		// run the plain matcher under the same budget.
		best, err := substringMatchBudget(ctx, input, query, maxCells)
		if err != nil {
			return Match{}, false, false, err
		}
		return best, best.Ratio() < threshold, false, nil
	}
	if n-mq > kMax {
		// Even consuming the whole query leaves more than kMax input
		// bytes unmatched.
		return Match{Distance: n}, false, true, nil
	}
	bud := newCellBudget(maxCells)
	best, haveCand, pruned, err := sellersBand(ctx, input, query, kMax, bud)
	if err != nil {
		return Match{}, false, pruned, err
	}
	return best, haveCand && best.Ratio() < threshold, pruned, nil
}

// cellBudget is the DP-cell allowance the stages of one match share. A
// nil *cellBudget is unlimited.
type cellBudget struct{ left int }

// newCellBudget returns the allowance for maxCells (<= 0: unlimited).
func newCellBudget(maxCells int) *cellBudget {
	if maxCells <= 0 {
		return nil
	}
	return &cellBudget{left: maxCells}
}

// spend charges cells and reports whether the allowance still holds.
func (b *cellBudget) spend(cells int) bool {
	if b == nil {
		return true
	}
	b.left -= cells
	return b.left >= 0
}

// sellersBand is the banded Sellers DP behind
// SubstringMatchThresholdBudgetCtx, for kMax < len(input) and a non-empty
// query. best is the best candidate within the cap by better's
// tie-break (haveCand false if none). Each column charges its band width
// against bud.
func sellersBand(ctx context.Context, input, query string, kMax int, bud *cellBudget) (best Match, haveCand, pruned bool, err error) {
	n := len(input)
	mq := len(query)
	done := ctx.Done()
	inf := kMax + 1
	w := n + 1
	tok, buf := getRows(4 * w)
	defer putRows(tok)
	dp := buf[0*w : 1*w : 1*w]
	start := buf[1*w : 2*w : 2*w]
	ndp := buf[2*w : 3*w : 3*w]
	nstart := buf[3*w : 4*w : 4*w]
	for i := 0; i <= n; i++ {
		if i <= kMax {
			dp[i] = i
		} else {
			dp[i] = inf
		}
		start[i] = 0
	}
	// lac is the last active cell: the deepest row whose value is within
	// the cap. Rows beyond lac+1 are never computed.
	lac := kMax
	best = Match{Start: 0, End: 0, Distance: n}
	for j := 1; j <= mq; j++ {
		if done != nil && j&ctxCheckMask == 0 {
			select {
			case <-done:
				return Match{}, false, false, ctx.Err()
			default:
			}
		}
		ndp[0] = 0
		nstart[0] = j
		lim := lac + 1
		if lim >= n {
			lim = n
		} else {
			pruned = true
		}
		if !bud.spend(lim) {
			return Match{}, false, pruned, ErrBudget
		}
		qc := query[j-1]
		for i := 1; i <= lim; i++ {
			cost := 1
			if input[i-1] == qc {
				cost = 0
			}
			d := dp[i-1] + cost
			s := start[i-1]
			if v := ndp[i-1] + 1; v < d {
				d = v
				s = nstart[i-1]
			}
			if v := dp[i] + 1; v < d {
				d = v
				s = start[i]
			}
			if d > inf {
				d = inf
			}
			ndp[i] = d
			nstart[i] = s
		}
		dp, ndp = ndp, dp
		start, nstart = nstart, start
		// Re-derive the last active cell; it moves down by at most one
		// per column and up by any amount.
		lac = lim
		for lac > 0 && dp[lac] > kMax {
			lac--
		}
		if lac < n {
			// Sentinel so the next column's left-moves read "over cap"
			// instead of a stale value.
			dp[lac+1] = inf
			start[lac+1] = j
		}
		if lim == n && dp[n] <= kMax {
			cand := Match{Start: start[n], End: j, Distance: dp[n]}
			if !haveCand || better(cand, best) {
				best = cand
				haveCand = true
			}
		}
	}
	return best, haveCand, pruned, nil
}

// NaiveSubstringMatch is the unoptimized O(n²·m²)-flavoured matcher: per
// end position it evaluates full-matrix Levenshtein against every starting
// position, exactly the textbook formulation whose cost the paper's
// optimizations remove. It returns the same Match as SubstringMatch,
// bit-identically: the per-end best distance equals the Sellers column
// minimum, the reported start is the one Sellers' forward propagation
// tracks for that end (recovered by sellersStarts), and ends compete under
// the same better() tie-break. Benchmarks use it as the cost baseline;
// tests and the fuzz harness use it as the independent oracle every
// optimized engine must reproduce.
func NaiveSubstringMatch(input, query string) Match {
	n := len(input)
	m := len(query)
	if n == 0 {
		return Match{}
	}
	starts := sellersStarts(input, query)
	best := Match{Start: 0, End: 0, Distance: n}
	for j := 1; j <= m; j++ {
		// Textbook enumeration: best distance over every start for this
		// end (d starts at n, the empty substring's distance).
		d := n
		for i := 0; i < j; i++ {
			if ld := Levenshtein(input, query[i:j]); ld < d {
				d = ld
			}
		}
		cand := Match{Start: starts[j], End: j, Distance: d}
		if better(cand, best) {
			best = cand
		}
	}
	return best
}

// sellersStarts computes, for every end column j, the start position the
// Sellers DP's forward start propagation assigns to the best match ending
// at j. It fills the full (n+1)×(m+1) matrix (row 0 zero: free start) and
// backtracks each end column with the propagation's exact tie-break —
// diagonal, then up (input deletion), then left (query insertion), a later
// move winning only by strict improvement — so the recovered start is the
// one SubstringMatch reports, not merely one of the optimal starts.
func sellersStarts(input, query string) []int {
	n := len(input)
	m := len(query)
	d := make([][]int, n+1)
	for i := range d {
		d[i] = make([]int, m+1)
		d[i][0] = i
	}
	for j := 1; j <= m; j++ {
		qc := query[j-1]
		for i := 1; i <= n; i++ {
			cost := 1
			if input[i-1] == qc {
				cost = 0
			}
			v := d[i-1][j-1] + cost
			if u := d[i-1][j] + 1; u < v {
				v = u
			}
			if l := d[i][j-1] + 1; l < v {
				v = l
			}
			d[i][j] = v
		}
	}
	starts := make([]int, m+1)
	for j := range starts {
		starts[j] = backtrackStart(d, input, query, n, j)
	}
	return starts
}

// backtrackStart walks one optimal path from cell (i, j) back to row 0,
// choosing at each step the predecessor the forward propagation would have
// charged the cell to: diagonal when it attains the cell's value, else up,
// else left. Row 0 means the match starts at the current column; column 0
// means the path consumed the whole query prefix, so the match starts at 0
// (the initial column's propagated start).
func backtrackStart(d [][]int, input, query string, i, j int) int {
	for i > 0 && j > 0 {
		v := d[i][j]
		cost := 1
		if input[i-1] == query[j-1] {
			cost = 0
		}
		switch {
		case d[i-1][j-1]+cost == v:
			i--
			j--
		case d[i-1][j]+1 == v:
			i--
		default:
			j--
		}
	}
	if i == 0 {
		return j
	}
	return 0
}
