// Package fragments manages the trusted string-fragment set used by
// positive taint inference (PTI) and provides multi-pattern matchers for
// locating fragment occurrences inside SQL queries.
//
// A fragment is a string literal extracted from the application's source
// (see package phpsrc). Per the Joza paper, only fragments containing at
// least one valid SQL token are retained: a fragment such as "hello world"
// can never cover a critical token and would only slow matching down.
//
// Two matchers implement the Matcher interface, so PTI and benchmarks can
// swap them:
//
//   - NaiveMatcher: the textbook scan the paper describes as O(n·m²) —
//     every fragment is searched for at every query position. Kept as the
//     "unoptimized PTI" baseline for Figure 7 and the matcher ablation.
//   - ACMatcher: an Aho–Corasick automaton in flat arrays that reports all
//     occurrences of all fragments, or the longest fragment ending at each
//     byte, in a single pass over the query.
//
// The MRU type implements the paper's first PTI optimization: a
// most-recently-used list of fragments that matched recent queries, tried
// first with a cheap targeted check before falling back to a full scan.
// PTI uses it only when asked to (pti.WithMRU), for the paper-faithful
// harness.
package fragments

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"joza/internal/sqltoken"
)

// Set is an immutable, deduplicated collection of trusted fragments.
type Set struct {
	frags []string
	index map[string]int
}

// NewSet builds a Set from texts, dropping duplicates, empty strings and —
// unless keepAll is requested via NewSetKeepAll — fragments that contain no
// SQL token under the MySQL dialect.
func NewSet(texts []string) *Set {
	return newSet(sqltoken.MySQL, texts, false)
}

// NewSetDialect is NewSet with the has-a-SQL-token retention filter
// evaluated under dialect d. The filter is dialect-sensitive at the
// margins — a dollar-quoted fragment holds a string token in Postgres but
// not in MySQL — so a guard configured for dialect d should build its set
// under d too.
func NewSetDialect(d sqltoken.Dialect, texts []string) *Set {
	return newSet(d, texts, false)
}

// NewSetKeepAll builds a Set that retains every non-empty fragment
// regardless of SQL-token content. Tests use it to model hypothetical
// fragment vocabularies.
func NewSetKeepAll(texts []string) *Set {
	return newSet(sqltoken.MySQL, texts, true)
}

func newSet(d sqltoken.Dialect, texts []string, keepAll bool) *Set {
	s := &Set{index: make(map[string]int, len(texts))}
	for _, t := range texts {
		if t == "" {
			continue
		}
		if !keepAll && !d.ContainsSQLToken(t) {
			continue
		}
		if _, dup := s.index[t]; dup {
			continue
		}
		s.index[t] = len(s.frags)
		s.frags = append(s.frags, t)
	}
	return s
}

// Len returns the number of fragments in the set.
func (s *Set) Len() int { return len(s.frags) }

// Fragment returns the fragment with the given ID.
func (s *Set) Fragment(id int) string { return s.frags[id] }

// Fragments returns a copy of all fragments in insertion order.
func (s *Set) Fragments() []string {
	out := make([]string, len(s.frags))
	copy(out, s.frags)
	return out
}

// Contains reports whether text is a fragment in the set.
func (s *Set) Contains(text string) bool {
	_, ok := s.index[text]
	return ok
}

// ID returns the fragment ID for text and whether it exists.
func (s *Set) ID(text string) (int, bool) {
	id, ok := s.index[text]
	return id, ok
}

// Sample returns up to n fragments sorted by descending length then
// lexicographically; used to print Table III-style fragment samples.
func (s *Set) Sample(n int) []string {
	out := s.Fragments()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Covers reports whether the single fragment with ID id occurs in query at
// a position that fully contains [start, end). This is the targeted check
// used with the MRU list: it only inspects the window of feasible start
// positions rather than the whole query.
func (s *Set) Covers(query string, id, start, end int) bool {
	_, ok := s.CoverAt(query, id, start, end)
	return ok
}

// CoverAt is Covers but also returns the start offset of the covering
// occurrence when one exists.
func (s *Set) CoverAt(query string, id, start, end int) (int, bool) {
	f := s.frags[id]
	flen := len(f)
	if flen < end-start {
		return 0, false
	}
	lo := end - flen
	if lo < 0 {
		lo = 0
	}
	hi := start
	if hi+flen > len(query) {
		hi = len(query) - flen
	}
	for a := lo; a <= hi; a++ {
		if query[a:a+flen] == f {
			return a, true
		}
	}
	return 0, false
}

// Occurrence records one exact occurrence of a fragment inside a query.
type Occurrence struct {
	// FragmentID indexes into the Set the matcher was built from.
	FragmentID int
	// Start and End are byte offsets of the occurrence, query[Start:End).
	Start int
	End   int
}

// Matcher locates fragment occurrences in a query.
type Matcher interface {
	// FindAll returns every occurrence of every fragment in query, in
	// unspecified order.
	FindAll(query string) []Occurrence
	// Longest appends one entry per byte of query to dst and returns the
	// extended slice: the ID of the longest fragment whose occurrence ends
	// at that byte, or -1 when none does.
	Longest(query string, dst []int32) []int32
}

// NaiveMatcher searches each fragment independently with repeated substring
// scans. It implements the unoptimized algorithm of Section III-B.
type NaiveMatcher struct {
	set *Set
}

var _ Matcher = (*NaiveMatcher)(nil)

// NewNaiveMatcher returns a NaiveMatcher over set.
func NewNaiveMatcher(set *Set) *NaiveMatcher {
	return &NaiveMatcher{set: set}
}

// FindAll implements Matcher.
func (nm *NaiveMatcher) FindAll(query string) []Occurrence {
	var out []Occurrence
	nm.scan(query, func(id, start int) {
		out = append(out, Occurrence{FragmentID: id, Start: start, End: start + len(nm.set.frags[id])})
	})
	return out
}

// Longest implements Matcher.
func (nm *NaiveMatcher) Longest(query string, dst []int32) []int32 {
	base := len(dst)
	dst = slices.Grow(dst, len(query))[:base+len(query)]
	long := dst[base:]
	for i := range long {
		long[i] = -1
	}
	nm.scan(query, func(id, start int) {
		f := nm.set.frags[id]
		last := start + len(f) - 1
		if long[last] < 0 || len(nm.set.frags[long[last]]) < len(f) {
			long[last] = int32(id)
		}
	})
	return dst
}

// scan calls emit with every occurrence of every fragment in query,
// fragment by fragment.
func (nm *NaiveMatcher) scan(query string, emit func(id, start int)) {
	for id, f := range nm.set.frags {
		for from := 0; ; {
			i := strings.Index(query[from:], f)
			if i < 0 {
				break
			}
			emit(id, from+i)
			from += i + 1
		}
	}
}

// ACMatcher is an Aho–Corasick automaton over the fragment set, stored in
// flat per-node arrays rather than a map per node. Nodes are numbered
// breadth-first, so the children of node u are the contiguous ids
// kids[u] to kids[u+1]-1, sorted by label; the root keeps a full 256-entry
// transition table. Building is O(total fragment bytes) after a sort of
// the fragments; FindAll is O(len(query) + matches) and Longest is
// O(len(query)).
type ACMatcher struct {
	set  *Set
	root [256]int32
	// label[v] is the byte on the edge into v.
	label []byte
	// kids has one entry per node plus a sentinel.
	kids []int32
	fail []int32
	// own[v] is the fragment spelled by the path to v, or -1.
	own []int32
	// dict[v] is the nearest node along v's failure chain whose own is a
	// fragment, or -1; it enumerates matches in O(matches).
	dict []int32
	// long[v] is the longest fragment that is a suffix of v's path, or -1.
	long []int32
}

var _ Matcher = (*ACMatcher)(nil)

// NewACMatcher builds the automaton for set.
func NewACMatcher(set *Set) *ACMatcher {
	frags := set.frags
	order := make([]int32, len(frags))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return frags[order[i]] < frags[order[j]] })

	// The trie is built one depth at a time. Node v stands for the run
	// order[spans[v].lo:spans[v].hi] of sorted fragments sharing its path;
	// a run's fragments group by their next byte into the node's children,
	// already in byte order.
	type run struct{ lo, hi int32 }
	spans := []run{{0, int32(len(order))}}
	m := &ACMatcher{set: set, label: []byte{0}, own: []int32{-1}}
	for depth, first := 0, 0; first < len(spans); depth++ {
		last := len(spans)
		for u := first; u < last; u++ {
			lo, hi := spans[u].lo, spans[u].hi
			// The fragment equal to u's path, if any, sorts first in its run.
			if lo < hi && len(frags[order[lo]]) == depth {
				m.own[u] = order[lo]
				lo++
			}
			m.kids = append(m.kids, int32(len(spans)))
			for lo < hi {
				c := frags[order[lo]][depth]
				next := lo + 1
				for next < hi && frags[order[next]][depth] == c {
					next++
				}
				spans = append(spans, run{lo, next})
				m.label = append(m.label, c)
				m.own = append(m.own, -1)
				lo = next
			}
		}
		first = last
	}
	n := len(spans)
	m.kids = append(m.kids, int32(n))

	m.fail = make([]int32, n)
	m.dict = make([]int32, n)
	m.long = make([]int32, n)
	m.dict[0], m.long[0] = -1, -1
	for v := m.kids[0]; v < m.kids[1]; v++ {
		m.root[m.label[v]] = v
	}
	// Ids ascend breadth-first, so every node a failure link can reach
	// is final before its children read it.
	for u := int32(0); u < int32(n); u++ {
		for v := m.kids[u]; v < m.kids[u+1]; v++ {
			if u != 0 {
				m.fail[v] = m.step(m.fail[u], m.label[v])
			}
			f := m.fail[v]
			if m.own[f] >= 0 {
				m.dict[v] = f
			} else {
				m.dict[v] = m.dict[f]
			}
			if m.own[v] >= 0 {
				m.long[v] = m.own[v]
			} else {
				m.long[v] = m.long[f]
			}
		}
	}
	return m
}

// child returns u's child labelled c, or 0 when u has none.
func (m *ACMatcher) child(u int32, c byte) int32 {
	lo, hi := m.kids[u], m.kids[u+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		switch l := m.label[mid]; {
		case l < c:
			lo = mid + 1
		case l > c:
			hi = mid
		default:
			return mid
		}
	}
	return 0
}

// step is the automaton's transition on byte c from state cur.
func (m *ACMatcher) step(cur int32, c byte) int32 {
	for cur != 0 {
		if v := m.child(cur, c); v != 0 {
			return v
		}
		cur = m.fail[cur]
	}
	return m.root[c]
}

// FindAll implements Matcher. At each end position it reports the longest
// occurrence first.
func (m *ACMatcher) FindAll(query string) []Occurrence {
	var out []Occurrence
	cur := int32(0)
	for i := 0; i < len(query); i++ {
		cur = m.step(cur, query[i])
		n := cur
		if m.own[n] < 0 {
			n = m.dict[n]
		}
		for ; n > 0; n = m.dict[n] {
			id := m.own[n]
			out = append(out, Occurrence{
				FragmentID: int(id),
				Start:      i + 1 - len(m.set.frags[id]),
				End:        i + 1,
			})
		}
	}
	return out
}

// Longest implements Matcher.
func (m *ACMatcher) Longest(query string, dst []int32) []int32 {
	cur := int32(0)
	for i := 0; i < len(query); i++ {
		cur = m.step(cur, query[i])
		dst = append(dst, m.long[cur])
	}
	return dst
}

// MRU is a bounded most-recently-used list of fragment IDs, safe for
// concurrent use. PTI records which fragments covered critical tokens of
// recent queries; web applications have a small SQL working set, so these
// fragments very likely cover the next query too.
type MRU struct {
	mu    sync.Mutex
	cap   int
	order []int
	pos   map[int]int // fragment ID -> index in order
}

// NewMRU returns an MRU holding at most capacity fragment IDs; capacity
// values below 1 default to 64.
func NewMRU(capacity int) *MRU {
	if capacity < 1 {
		capacity = 64
	}
	return &MRU{cap: capacity, pos: make(map[int]int, capacity)}
}

// Touch marks id as most recently used, inserting it if absent and evicting
// the least recently used entry when over capacity.
func (m *MRU) Touch(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx, ok := m.pos[id]; ok {
		// Move to front.
		copy(m.order[1:idx+1], m.order[:idx])
		m.order[0] = id
		for i := 0; i <= idx; i++ {
			m.pos[m.order[i]] = i
		}
		return
	}
	m.order = append(m.order, 0)
	copy(m.order[1:], m.order[:len(m.order)-1])
	m.order[0] = id
	for i, v := range m.order {
		m.pos[v] = i
	}
	if len(m.order) > m.cap {
		evicted := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.pos, evicted)
	}
}

// IDs returns the fragment IDs from most to least recently used.
func (m *MRU) IDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.order))
	copy(out, m.order)
	return out
}

// Len returns the number of tracked fragment IDs.
func (m *MRU) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}
