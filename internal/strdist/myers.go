// Myers' bit-parallel approximate matching: the threshold matcher's
// passes over the query, each advancing 64 DP cells per machine word.
//
// The observation (Myers 1999) is that adjacent cells of the unit-cost
// edit DP differ by -1, 0 or +1, so a whole DP column (here: all rows of
// one query position) can be represented by two bit vectors — positive
// and negative vertical deltas — and advanced with a constant number of
// word operations. In Sellers "search" mode (row 0 pinned to zero, a
// match may start anywhere) the recurrence yields the DP's last row,
// dp[n][j], for every query position j: exactly the per-column candidate
// distances SubstringMatchThresholdBudgetCtx derives cell by cell.
//
// Bit-parallelism cannot cheaply track *where* a match started, and the
// matched span (with the package's distance/length/end tie-breaking) is
// part of the matcher contract. So the engine decides what it can from
// the bit vectors and confines the cell-at-a-time DP to a window:
//
//   - the search-mode scan covers the whole query and yields the minimum
//     last-row distance d* and the first and last columns reaching it;
//   - a reverse pass over the reversed input, with the global-distance
//     boundary (Hyyrö's "+1" carry into row 1), bounds the longest span
//     at distance d* ending at those columns, and rejects the pair when
//     even that span's ratio is not below threshold;
//   - only the pairs left run the Sellers DP, on the columns
//     [first−n−d*, last] that hold every optimal path to a tied end, so
//     results are bit-identical to the cell-at-a-time matcher by
//     construction.
//
// Misses and near-misses — nearly every input×query pair of benign
// traffic, and the evasions whose ratio stays at or above threshold —
// never run the cell-at-a-time DP at all.
package strdist

import (
	"context"
	"sync"
)

// wordsPerBlock is the pattern width one machine word covers.
const wordsPerBlock = 64

// wordPool recycles the block-state buffers of the multi-word scan and
// the reverse pass (pattern masks plus the two delta vectors), mirroring
// rowPool's zero-steady-state-allocation discipline.
var wordPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, 2*(256+2))
		return &s
	},
}

func getWords(n int) (*[]uint64, []uint64) {
	p := wordPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	buf := (*p)[:n]
	return p, buf
}

func putWords(p *[]uint64) { wordPool.Put(p) }

// MaxQualifyingDistance returns a safe upper bound on the edit distance
// of any substring match whose difference ratio is strictly below
// threshold, for an n-byte input against an m-byte query. A match of
// span length L has distance d ≥ |L−n| and needs d < threshold·L, so
// d < threshold·n/(1−threshold); and L ≤ m caps d < threshold·m. Any
// candidate above the returned bound provably cannot satisfy the
// threshold — the pruning fact behind both the bit-parallel scan cap and
// NTI's prefilter. A result of 0 means only exact occurrences can
// qualify.
func MaxQualifyingDistance(n int, threshold float64, m int) int {
	if n == 0 || m == 0 || threshold <= 0 {
		return 0
	}
	if threshold >= 1 {
		// Degenerate configuration: the length argument gives no bound
		// (dp values never exceed n anyway).
		return n
	}
	k := int(threshold * float64(n) / (1 - threshold))
	if k2 := int(threshold * float64(m)); k2 < k {
		k = k2
	}
	if k > n {
		k = n
	}
	return k
}

// BitParallelThresholdBudgetCtx is the bit-parallel drop-in for
// SubstringMatchThresholdBudgetCtx: same threshold semantics (strict
// inequality on the difference ratio), same tie-breaking, same ctx
// polling cadence and ErrBudget accounting.
//
// It derives the tightest distance cap any qualifying match could carry
// (MaxQualifyingDistance) and runs three passes:
//
//   - The Myers scan covers the whole query and keeps the minimum
//     last-row score d* within the cap and the first and last end
//     columns reaching it. No such column proves no qualifying
//     substring.
//   - The reverse pass (anchoredReverse) bounds the span of every end
//     tied at d*: none is longer than reach. When d*/reach is not below
//     threshold, neither is the ratio of the match Sellers would pick,
//     and the pair is decided "not found" with no cell-at-a-time work.
//   - Survivors run the banded Sellers DP with cap d* on columns
//     [first−n−d*, last] only. A span at distance d* is at most n+d*
//     long, so the window holds every optimal path to a tied end: the
//     propagated starts and better's tie-break come out bit-identical
//     to SubstringMatchThresholdBudgetCtx's, however many ends tie.
//
// A cap of n or more and empty operands go to
// SubstringMatchThresholdBudgetCtx. pruned is true whenever any DP
// column or row was skipped. When found is false the returned Match is
// not meaningful (as documented on SubstringMatchThreshold).
//
// maxCells charges n cells per column of the scan (the whole query) and
// of the reverse pass (at most last−first+n+d* columns), plus the band
// width of every column of the windowed DP.
func BitParallelThresholdBudgetCtx(ctx context.Context, input, query string, threshold float64, maxCells int) (m Match, found, pruned bool, err error) {
	n := len(input)
	mq := len(query)
	if n == 0 || mq == 0 {
		return SubstringMatchThresholdBudgetCtx(ctx, input, query, threshold, maxCells)
	}
	kScan := MaxQualifyingDistance(n, threshold, mq)
	if kScan >= n {
		// The scan would hit on its first column (dp[n][j] never exceeds
		// n); go straight to extraction.
		return SubstringMatchThresholdBudgetCtx(ctx, input, query, threshold, maxCells)
	}
	if n-mq > kScan {
		// Even consuming the whole query leaves too many input bytes
		// unmatched (mirrors the Sellers quick reject).
		return Match{Distance: n}, false, true, nil
	}
	bud := newCellBudget(maxCells)
	ends := scanEnds{best: kScan}
	if n <= wordsPerBlock {
		err = myersScan64(ctx, input, query, bud, &ends)
	} else {
		err = myersScanBlocks(ctx, input, query, bud, &ends)
	}
	if err != nil {
		return Match{}, false, false, err
	}
	if ends.last == 0 {
		return Match{Distance: n}, false, true, nil
	}
	d, first, last := ends.best, ends.first, ends.last
	reach, err := anchoredReverse(ctx, input, query, first, last, min(last, last-first+n+d), d, bud, nil)
	if err != nil {
		return Match{}, false, false, err
	}
	if (Match{End: reach, Distance: d}).Ratio() >= threshold {
		return Match{Distance: n}, false, true, nil
	}
	w := max(0, first-n-d)
	m, _, pruned, err = sellersBand(ctx, input, query[w:last], d, bud)
	if err != nil {
		return Match{}, false, false, err
	}
	m.Start += w
	m.End += w
	return m, m.Ratio() < threshold, pruned || w > 0 || last < mq, nil
}

// scanEnds is what the whole-query scan reports: the minimum last-row
// score within the cap and the first and last end columns reaching it
// (exclusive Match.End values). Initialise best to the cap; last == 0
// after the scan means no column came within it.
type scanEnds struct{ best, first, last int }

// add records that the column ending at end has last-row score score,
// which the caller has checked is ≤ e.best.
func (e *scanEnds) add(score, end int) {
	if score < e.best || e.last == 0 {
		e.best, e.first = score, end
	}
	e.last = end
}

// myersScan64 is the single-word scan (len(input) ≤ 64). It computes
// dp[n][j] for every query position, recording in ends the minimum
// within ends.best and the first and last columns reaching it, charging
// len(input) cells per column against bud and polling ctx on the same
// cadence as the cell-at-a-time matchers.
func myersScan64(ctx context.Context, input, query string, bud *cellBudget, ends *scanEnds) error {
	n := len(input)
	var peq [256]uint64
	for i := 0; i < n; i++ {
		peq[input[i]] |= 1 << uint(i)
	}
	top := uint64(1) << uint(n-1)
	pv := ^uint64(0)
	mv := uint64(0)
	score := n
	done := ctx.Done()
	for j := 0; j < len(query); j++ {
		if done != nil && j&ctxCheckMask == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if !bud.spend(n) {
			return ErrBudget
		}
		eq := peq[query[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&top != 0 {
			score++
		} else if mh&top != 0 {
			score--
		}
		// Search mode: row 0 stays zero across columns, so the shifted-in
		// horizontal deltas are 0 (no "+1" carry of the global-distance
		// variant).
		ph <<= 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		if score <= ends.best {
			ends.add(score, j+1)
		}
	}
	return nil
}

// myersBlocks is the state of a multi-word Myers pass over a pattern:
// ⌈n/64⌉ blocks per column, horizontal deltas carried between blocks,
// sliced from one pooled buffer. peq[c*blocks+b] holds the rows of block
// b whose pattern byte is c.
type myersBlocks struct {
	tok         *[]uint64
	blocks      int
	peq, pv, mv []uint64
	// lastShift is the bit of the pattern's last row in the last block.
	lastShift uint
}

// newMyersBlocks builds the masks for pattern (len ≥ 1), read backwards
// when reversed, and sets column 0's vertical deltas (dp[i][0] = i).
// Hand the state back with release.
func newMyersBlocks(pattern string, reversed bool) myersBlocks {
	n := len(pattern)
	blocks := (n + wordsPerBlock - 1) / wordsPerBlock
	tok, buf := getWords((256 + 2) * blocks)
	s := myersBlocks{
		tok:       tok,
		blocks:    blocks,
		peq:       buf[:256*blocks],
		pv:        buf[256*blocks : 257*blocks],
		mv:        buf[257*blocks : 258*blocks],
		lastShift: uint((n - 1) % wordsPerBlock),
	}
	clear(s.peq)
	for i := 0; i < n; i++ {
		c := pattern[i]
		if reversed {
			c = pattern[n-1-i]
		}
		s.peq[int(c)*blocks+i/wordsPerBlock] |= 1 << uint(i%wordsPerBlock)
	}
	for b := range s.pv {
		s.pv[b] = ^uint64(0)
		s.mv[b] = 0
	}
	return s
}

func (s *myersBlocks) release() { putWords(s.tok) }

// step advances every block by one text byte c and returns the change of
// the last row's value. hp (0 or 1) is the horizontal delta entering row
// 1: 0 in search mode, where row 0 stays zero, and 1 in the anchored
// pass. Each block takes the delta leaving the block below as its
// carry-in (hp/hn bits: +1/−1), as in Hyyrö's multi-word variant.
func (s *myersBlocks) step(c byte, hp uint64) int {
	eq := s.peq[int(c)*s.blocks:][:s.blocks]
	pv := s.pv[:len(eq)]
	mv := s.mv[:len(eq)]
	hn := uint64(0)
	shift := uint(wordsPerBlock - 1)
	for b, e := range eq {
		if b == len(eq)-1 {
			shift = s.lastShift
		}
		p, m := pv[b], mv[b]
		xv := e | m
		e |= hn
		xh := (((e & p) + p) ^ p) | e
		ph := m | ^(xh | p)
		mh := p & xh
		outP, outN := ph>>shift&1, mh>>shift&1
		ph = ph<<1 | hp
		mh = mh<<1 | hn
		pv[b] = mh | ^(xv | ph)
		mv[b] = ph & xv
		hp, hn = outP, outN
	}
	return int(hp) - int(hn)
}

// myersScanBlocks is the multi-word scan for inputs longer than 64
// bytes. Semantics match myersScan64.
func myersScanBlocks(ctx context.Context, input, query string, bud *cellBudget, ends *scanEnds) error {
	n := len(input)
	s := newMyersBlocks(input, false)
	defer s.release()
	score := n
	done := ctx.Done()
	for j := 0; j < len(query); j++ {
		if done != nil && j&ctxCheckMask == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if !bud.spend(n) {
			return ErrBudget
		}
		score += s.step(query[j], 0)
		if score <= ends.best {
			ends.add(score, j+1)
		}
	}
	return nil
}

// anchoredReverse is the reverse pass: a Myers pass with the reversed
// input as pattern over query[:last] read backwards, for width columns.
// Row 0 is 0 for the first last−first columns and then grows by one per
// column (horizontal delta +1 into row 1, the global-distance variant's
// carry), so a match must end in [first, last]. After c columns the
// last-row score is
//
//	min over e in [max(first, last−c), last] of Levenshtein(input, query[last−c:e]),
//
// which for first == last is Levenshtein(input, query[last−c:last]). It
// returns reach, the largest c ≤ width whose score is d (0 if none), and,
// when dists is non-nil, stores every score in dists[c] for c in
// [0, width]. Each column charges len(input) cells.
//
// When d is the minimum last-row score of the search-mode scan, no score
// here is below d, so every span at distance d ending in [first, last]
// is at most reach long.
func anchoredReverse(ctx context.Context, input, query string, first, last, width, d int, bud *cellBudget, dists []int) (reach int, err error) {
	n := len(input)
	rev := newMyersBlocks(input, true)
	defer rev.release()
	score := n
	if dists != nil {
		dists[0] = score
	}
	done := ctx.Done()
	for c := 1; c <= width; c++ {
		if done != nil && c&ctxCheckMask == 0 {
			select {
			case <-done:
				return 0, ctx.Err()
			default:
			}
		}
		if !bud.spend(n) {
			return 0, ErrBudget
		}
		hp := uint64(0)
		if c > last-first {
			hp = 1
		}
		score += rev.step(query[last-c], hp)
		if dists != nil {
			dists[c] = score
		}
		if score == d {
			reach = c
		}
	}
	return reach, nil
}
