// The prefilter: rejecting input×query pairs before any DP, and bounding
// the matcher to the part of the query that can hold a match.
//
// NTI only cares about matches whose difference ratio is strictly below
// the threshold, which bounds their edit distance by
// k = strdist.MaxQualifyingDistance(n, threshold, m) for an n-byte input
// against an m-byte query. Three stages use that bound:
//
//   - The partition filter (pieceOccurs), for k+1 ≤ maxPieces: the
//     pigeonhole filter of Wu and Manber. Cut the input into k+1
//     contiguous pieces; a substitution, a deletion or an insertion inside
//     a piece changes that piece only, and an insertion between two pieces
//     changes neither, so a substring within distance k holds one piece
//     verbatim. When no piece occurs in the query the pair is rejected.
//     It costs at most maxPieces substring searches and no state.
//   - The trigram screen. By the q-gram lemma, two strings within edit
//     distance k share at least (n−q+1) − q·k of the shorter string's
//     q-grams: every edit destroys at most q grams. The query's trigrams
//     are hashed into a bitmap once per check, by the first input that
//     reaches the screen, and every input probes it. Set membership and
//     hash collisions only over-count, so the screen never rejects a pair
//     the matcher would accept.
//   - The window pass (windowSpan), per input: the counting filter of
//     Jokinen, Tarhio and Ukkonen. An alignment of the input with a
//     substring s at distance S+D+I ≤ k (substitutions, deletions,
//     insertions) matches n−S−D of the input's bytes, and s is n+I−D
//     bytes long. So the n-byte query window ending where s ends holds at
//     least n−S−I ≥ n−k of the input's bytes, counted as a multiset, and
//     when s is longer than n bytes so does the window of its first n
//     bytes. A sliding count finds every end column whose window passes.
//     None rejects the pair; otherwise every substring within distance k
//     (every qualifying match, and every optimal substring of a column
//     whose search distance is at most k) lies in
//     [first passing end − n, last passing end), and the matcher runs on
//     that range only.
//
// The cheapest test runs first. The screen's build costs O(m) once per
// check and its probe O(n) per input; the partition filter costs up to
// k+1 scans of the query per input, and the window pass O(m) per input.
// So the partition filter runs only while the check has not built the
// screen, and a short absent input then never builds it; once built, the
// screen's probe is the cheaper test, and a partition filter behind it
// rejected no pair on any workload of the suite. The screen stays for
// the inputs the partition filter does not take (long inputs, whose k+1
// exceeds maxPieces) and for a many-field form, which pays its build
// once and probes it per field. The bitmap is pooled and cleared on
// release, so the steady state allocates nothing.
package nti

import (
	"strings"
	"sync"

	"joza/internal/core"
	"joza/internal/strdist"
)

// gramQ is the q-gram width. Trigrams are selective enough that benign
// form fields almost never meet the quota against a SQL statement by
// accident.
const gramQ = 3

// maxPieces is the most pieces the partition filter cuts an input into:
// past it the pieces grow short enough to occur in most queries by
// accident, and the scans cost more than the trigram screen's probe.
const maxPieces = 8

// pieceOccurs reports whether one of value's p contiguous pieces, as equal
// in length as they can be, occurs verbatim in query. Callers need
// 0 < p ≤ len(value).
func pieceOccurs(value, query string, p int) bool {
	n := len(value)
	for i := 0; i < p; i++ {
		if strings.Contains(query, value[i*n/p:(i+1)*n/p]) {
			return true
		}
	}
	return false
}

// gramBitsLog is log2 of the screen's bitmap size in bits. 2^14 bits keep
// a few hundred query trigrams sparse (a few percent of bits set) in 2 KB.
const gramBitsLog = 14

// gramBits is the trigram screen's bitmap: bit gramHash(g) is set for
// every trigram g of the query.
type gramBits [1 << gramBitsLog / 64]uint64

var gramBitsPool = sync.Pool{New: func() any { return new(gramBits) }}

// gramHash mixes the packed trigram abc into a bitmap index (Knuth
// multiplicative hashing, top bits of the 32-bit product).
func gramHash(a, b, c byte) uint32 {
	return (uint32(a)<<16 | uint32(b)<<8 | uint32(c)) * 2654435761 >> (32 - gramBitsLog)
}

// build sets the bit of every trigram of q.
func (s *gramBits) build(q string) {
	for i := 0; i+gramQ <= len(q); i++ {
		h := gramHash(q[i], q[i+1], q[i+2])
		s[h/64] |= 1 << (h % 64)
	}
}

// hasAtLeast reports whether at least need trigram positions of value
// hit the bitmap, aborting as soon as the quota is met or becomes
// unreachable.
func (s *gramBits) hasAtLeast(value string, need int) bool {
	positions := len(value) - gramQ + 1
	hits := 0
	for i := 0; i < positions; i++ {
		h := gramHash(value[i], value[i+1], value[i+2])
		if s[h/64]&(1<<(h%64)) != 0 {
			if hits++; hits >= need {
				return true
			}
		} else if hits+positions-i-1 < need {
			return false
		}
	}
	return false
}

// windowSpan is the window pass: it slides a window of n bytes over
// query (shorter at the query's start) and counts how many of value's n
// bytes, as a multiset, the window holds. It returns ok false when no
// window holds n−k of them, and otherwise the range [lo, hi) from the
// first passing end minus n to the last passing end. Callers need
// 0 < k < n.
func windowSpan(value, query string, k int) (lo, hi int, ok bool) {
	n := len(value)
	need := n - k
	// rem[c] is value's count of c minus the window's; have is the
	// multiset intersection's size.
	var rem [256]int32
	for i := 0; i < n; i++ {
		rem[value[i]]++
	}
	have, first := 0, 0
	for j := 0; j < len(query); j++ {
		c := query[j]
		if rem[c] > 0 {
			have++
		}
		rem[c]--
		if j >= n {
			c := query[j-n]
			if rem[c]++; rem[c] > 0 {
				have--
			}
		}
		if have >= need {
			if first == 0 {
				first = j + 1
			}
			hi = j + 1
		}
	}
	return max(0, first-n), hi, hi > 0
}

// checkState is the per-AnalyzeCtx scratch shared across that check's
// matchInput calls: the span storage, the lazily-built trigram screen,
// the lazily-taken reason scratch and trace bookkeeping. release must run
// before the check returns.
type checkState struct {
	// spans holds the spans of the input being matched, so the common
	// few-span match keeps them on the check's stack; markings and traces
	// copy them out.
	spans [4]strdist.Match
	// grams is the query's trigram screen; nil until the first input
	// reaches it.
	grams *gramBits
	// reasons gathers the check's attack reasons, which leave it at their
	// exact size; nil until the first reason.
	reasons *[]core.Reason
	// marks is the pooled storage the check's markings move to once they
	// outgrow the check's stack buffer; nil until then.
	marks *[]core.Marking
	// timed mirrors span.Active() so the prefilter only pays for clocks on
	// traced checks.
	timed bool
	// prefilterNs accumulates prefilter wall time (partition filter,
	// screen and window pass); it is a sub-portion of the check's NTI
	// match time.
	prefilterNs int64
	// rejected reports whether the most recent matchInput call ended at
	// the prefilter (trace evidence).
	rejected bool
}

func (st *checkState) ensureGrams(query string) *gramBits {
	if st.grams == nil {
		st.grams = gramBitsPool.Get().(*gramBits)
		st.grams.build(query)
	}
	return st.grams
}

func (st *checkState) release() {
	if st.grams != nil {
		clear(st.grams[:])
		gramBitsPool.Put(st.grams)
		st.grams = nil
	}
	if st.reasons != nil {
		// The reasons hold query text: clear them before pooling.
		clear(*st.reasons)
		if *st.reasons = (*st.reasons)[:0]; cap(*st.reasons) <= maxPooledEvidence {
			reasonBufs.Put(st.reasons)
		}
		st.reasons = nil
	}
	if st.marks != nil {
		// So do the markings' sources.
		clear(*st.marks)
		if *st.marks = (*st.marks)[:0]; cap(*st.marks) <= maxPooledEvidence {
			markingBufs.Put(st.marks)
		}
		st.marks = nil
	}
}

// reasonCount returns how many reasons the check has gathered.
func (st *checkState) reasonCount() int {
	if st.reasons == nil {
		return 0
	}
	return len(*st.reasons)
}

// addMarking appends m to the check's markings: to marks, the caller's
// stack buffer, while it has room, and to the pooled storage *st.marks
// from then on. It returns the stack part; markings returns them all.
// The stack buffer is only ever copied from, so it stays on the stack.
func (st *checkState) addMarking(marks []core.Marking, m core.Marking) []core.Marking {
	if st.marks == nil {
		if len(marks) < cap(marks) {
			return append(marks, m)
		}
		st.marks = markingBufs.Get().(*[]core.Marking)
		*st.marks = append((*st.marks)[:0], marks...)
	}
	*st.marks = append(*st.marks, m)
	return marks
}

// markings returns the check's markings, given the stack part.
func (st *checkState) markings(marks []core.Marking) []core.Marking {
	if st.marks != nil {
		return *st.marks
	}
	return marks
}

// reasonBufs and markingBufs pool checkState's evidence scratch; scratch
// grown past maxPooledEvidence is left to the collector.
var (
	reasonBufs  = sync.Pool{New: func() any { return new([]core.Reason) }}
	markingBufs = sync.Pool{New: func() any { return new([]core.Marking) }}
)

const maxPooledEvidence = 1024

// candidateRange runs the prefilter on a pair that has no exact
// occurrence (the fast path runs first): ok is false when value provably
// cannot produce a qualifying match anywhere in query, and otherwise
// every qualifying match lies in query[lo:hi].
func (a *Analyzer) candidateRange(value, query string, st *checkState) (lo, hi int, ok bool) {
	k := strdist.MaxQualifyingDistance(len(value), a.threshold, len(query))
	if k <= 0 {
		// Only exact occurrences could stay under the threshold, and the
		// fast path found none.
		return 0, 0, false
	}
	if k >= len(value) {
		// Any window holds the n−k ≤ 0 bytes needed.
		return 0, len(query), true
	}
	if st.grams == nil && k+1 <= maxPieces && !pieceOccurs(value, query, k+1) {
		// No screen to probe yet, and the pieces cost less than building
		// it: a rejection here never builds it.
		return 0, 0, false
	}
	if need := (len(value) - gramQ + 1) - gramQ*k; need > 0 &&
		!st.ensureGrams(query).hasAtLeast(value, need) {
		return 0, 0, false
	}
	return windowSpan(value, query, k)
}
