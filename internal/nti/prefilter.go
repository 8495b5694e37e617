// The q-gram prefilter: rejecting input×query pairs before any DP.
//
// By the q-gram lemma, two strings within edit distance k share at least
// (n−q+1) − q·k of the shorter string's q-grams: every edit destroys at
// most q grams. NTI only cares about matches whose difference ratio is
// strictly below the threshold, which bounds the qualifying distance
// (strdist.MaxQualifyingDistance); when the input cannot meet the gram
// quota against the query's gram set, no qualifying span can exist and
// the pair is rejected in O(n) with no matcher call at all. Counting
// set membership (rather than multiset occurrences) only over-counts, so
// the filter never rejects a pair the matcher would have accepted.
//
// The gram set is built lazily, once per analyzed query — the first
// input that survives the cheap pre-checks pays the O(m) build, every
// further input reuses it — and the backing table is pooled so the
// steady state allocates nothing.
package nti

import (
	"sync"

	"joza/internal/core"
	"joza/internal/strdist"
)

// gramQ is the q-gram width. Trigrams pack into 24 bits and are selective
// enough that benign form fields almost never meet the quota against a
// SQL statement by accident.
const gramQ = 3

// gramSet is an open-addressing set of packed trigrams. Entries store the
// packed gram plus one so zero means empty.
type gramSet struct {
	table []uint32
	mask  uint32
}

var gramSetPool = sync.Pool{New: func() any { return new(gramSet) }}

func packGram(a, b, c byte) uint32 {
	return uint32(a)<<16 | uint32(b)<<8 | uint32(c)
}

// gramSlot mixes the packed gram into a table slot (Knuth multiplicative
// hashing; the table size is a power of two).
func (s *gramSet) gramSlot(g uint32) uint32 {
	return (g * 2654435761) & s.mask
}

// build fills the set with every trigram of q, reusing the previous
// table allocation when large enough.
func (s *gramSet) build(q string) {
	n := len(q) - gramQ + 1
	if n < 1 {
		s.table = s.table[:0]
		s.mask = 0
		return
	}
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(s.table) < size {
		s.table = make([]uint32, size)
	} else {
		s.table = s.table[:size]
		for i := range s.table {
			s.table[i] = 0
		}
	}
	s.mask = uint32(size - 1)
	for i := 0; i < n; i++ {
		g := packGram(q[i], q[i+1], q[i+2])
		slot := s.gramSlot(g)
		for {
			switch s.table[slot] {
			case 0:
				s.table[slot] = g + 1
			case g + 1:
			default:
				slot = (slot + 1) & s.mask
				continue
			}
			break
		}
	}
}

func (s *gramSet) contains(g uint32) bool {
	if len(s.table) == 0 {
		return false
	}
	slot := s.gramSlot(g)
	for {
		switch s.table[slot] {
		case 0:
			return false
		case g + 1:
			return true
		}
		slot = (slot + 1) & s.mask
	}
}

// hasAtLeast reports whether at least need trigram positions of value
// hit the set, aborting as soon as the quota is met or becomes
// unreachable.
func (s *gramSet) hasAtLeast(value string, need int) bool {
	positions := len(value) - gramQ + 1
	hits := 0
	for i := 0; i < positions; i++ {
		if s.contains(packGram(value[i], value[i+1], value[i+2])) {
			if hits++; hits >= need {
				return true
			}
		} else if hits+positions-i-1 < need {
			return false
		}
	}
	return false
}

// checkState is the per-AnalyzeCtx scratch shared across that check's
// matchInput calls: the span storage, the lazily-built query gram set,
// the lazily-taken reason scratch and trace bookkeeping. release must run
// before the check returns.
type checkState struct {
	// spans holds the spans of the input being matched, so the common
	// few-span match keeps them on the check's stack; markings and traces
	// copy them out.
	spans [4]strdist.Match
	grams *gramSet
	built bool
	// reasons gathers the check's attack reasons, which leave it at their
	// exact size; nil until the first reason.
	reasons *[]core.Reason
	// marks is the pooled storage the check's markings move to once they
	// outgrow the check's stack buffer; nil until then.
	marks *[]core.Marking
	// timed mirrors span.Active() so the prefilter only pays for clocks on
	// traced checks.
	timed bool
	// prefilterNs accumulates prefilter wall time; it is a sub-portion of
	// the check's NTI match time.
	prefilterNs int64
	// rejected reports whether the most recent matchInput call ended at
	// the prefilter (trace evidence).
	rejected bool
}

func (st *checkState) ensureGrams(query string) *gramSet {
	if !st.built {
		st.grams = gramSetPool.Get().(*gramSet)
		st.grams.build(query)
		st.built = true
	}
	return st.grams
}

func (st *checkState) release() {
	if st.built {
		gramSetPool.Put(st.grams)
		st.grams = nil
		st.built = false
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

// prefilterReject reports whether value provably cannot produce a
// qualifying match anywhere in query. Callers have already ruled out
// exact occurrences (the fast path runs first).
func (a *Analyzer) prefilterReject(value, query string, st *checkState) bool {
	kEff := strdist.MaxQualifyingDistance(len(value), a.threshold, len(query))
	if kEff <= 0 {
		// Only exact occurrences could stay under the threshold, and the
		// fast path found none.
		return true
	}
	if len(value) < gramQ {
		return false
	}
	need := (len(value) - gramQ + 1) - gramQ*kEff
	if need <= 0 {
		return false
	}
	return !st.ensureGrams(query).hasAtLeast(value, need)
}
