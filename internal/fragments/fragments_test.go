package fragments

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSetFiltersAndDedups(t *testing.T) {
	s := NewSet([]string{
		"SELECT * FROM t WHERE id=", // kept: SQL tokens
		"hello world",               // dropped: no SQL token
		"",                          // dropped: empty
		" LIMIT 5",                  // kept
		"SELECT * FROM t WHERE id=", // dropped: duplicate
		"OR",                        // kept: keyword
	})
	want := []string{"SELECT * FROM t WHERE id=", " LIMIT 5", "OR"}
	if got := s.Fragments(); !reflect.DeepEqual(got, want) {
		t.Errorf("fragments = %q, want %q", got, want)
	}
	if !s.Contains("OR") || s.Contains("hello world") {
		t.Error("Contains wrong")
	}
	if id, ok := s.ID(" LIMIT 5"); !ok || id != 1 {
		t.Errorf("ID = %d, %v", id, ok)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Fragment(2) != "OR" {
		t.Errorf("Fragment(2) = %q", s.Fragment(2))
	}
}

func TestNewSetKeepAll(t *testing.T) {
	s := NewSetKeepAll([]string{"plainword", "another"})
	if s.Len() != 2 {
		t.Errorf("KeepAll Len = %d, want 2", s.Len())
	}
}

func sortOccs(occs []Occurrence) {
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].Start != occs[j].Start {
			return occs[i].Start < occs[j].Start
		}
		if occs[i].End != occs[j].End {
			return occs[i].End < occs[j].End
		}
		return occs[i].FragmentID < occs[j].FragmentID
	})
}

func TestMatchersAgreeOnHandPicked(t *testing.T) {
	s := NewSetKeepAll([]string{"he", "she", "his", "hers", "SELECT", "OR"})
	nm := NewNaiveMatcher(s)
	ac := NewACMatcher(s)
	queries := []string{
		"ushers",
		"SELECT x FROM t WHERE a=1 OR b=2",
		"shehehis",
		"",
		"xyz",
		"ORORORhehe",
	}
	for _, q := range queries {
		a := nm.FindAll(q)
		b := ac.FindAll(q)
		sortOccs(a)
		sortOccs(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %q: naive=%v ac=%v", q, a, b)
		}
		// Every reported occurrence must be textually correct.
		for _, o := range b {
			if q[o.Start:o.End] != s.Fragment(o.FragmentID) {
				t.Errorf("query %q: occurrence %v mismatches fragment %q",
					q, o, s.Fragment(o.FragmentID))
			}
		}
		checkLongest(t, s, q, nm, ac)
	}
}

// bruteLongest is Longest's oracle: at every byte, the longest fragment
// the query prefix ending there ends with.
func bruteLongest(s *Set, q string) []int32 {
	out := make([]int32, len(q))
	for i := range q {
		out[i] = -1
		for id, f := range s.frags {
			if strings.HasSuffix(q[:i+1], f) && (out[i] < 0 || len(f) > len(s.frags[out[i]])) {
				out[i] = int32(id)
			}
		}
	}
	return out
}

// checkLongest requires every matcher's Longest to equal the oracle, also
// when appending behind existing entries.
func checkLongest(t *testing.T, s *Set, q string, ms ...Matcher) {
	t.Helper()
	want := bruteLongest(s, q)
	for _, m := range ms {
		if got := m.Longest(q, nil); !slices.Equal(got, want) {
			t.Errorf("%T.Longest(%q) = %v, want %v (set %q)", m, q, got, want, s.frags)
		}
		got := m.Longest(q, []int32{7})
		if got[0] != 7 || !slices.Equal(got[1:], want) {
			t.Errorf("%T.Longest(%q) behind one entry = %v, want [7 %v]", m, q, got, want)
		}
	}
}

func TestMatchersAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := "abSELCTOR ="
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for iter := 0; iter < 100; iter++ {
		var texts []string
		for k := 0; k < 1+rng.Intn(8); k++ {
			texts = append(texts, randStr(1+rng.Intn(5)))
		}
		s := NewSetKeepAll(texts)
		nm := NewNaiveMatcher(s)
		ac := NewACMatcher(s)
		q := randStr(rng.Intn(40))
		a := nm.FindAll(q)
		b := ac.FindAll(q)
		sortOccs(a)
		sortOccs(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: set=%q query=%q naive=%v ac=%v", iter, texts, q, a, b)
		}
		checkLongest(t, s, q, nm, ac)
	}
}

func TestLongestIntoPresizedDstDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted only without the race detector")
	}
	s := NewSetKeepAll([]string{"he", "she", "his", "hers", "SELECT", "OR"})
	q := "SELECT x FROM t WHERE a=1 OR b=2 ushers"
	dst := make([]int32, 0, len(q))
	for _, m := range []Matcher{NewNaiveMatcher(s), NewACMatcher(s)} {
		if n := testing.AllocsPerRun(100, func() { dst = m.Longest(q, dst[:0]) }); n != 0 {
			t.Errorf("%T.Longest allocates %v times per call", m, n)
		}
	}
}

func TestOverlappingPatterns(t *testing.T) {
	s := NewSetKeepAll([]string{"aa", "aaa"})
	ac := NewACMatcher(s)
	occs := ac.FindAll("aaaa")
	sortOccs(occs)
	// "aa" at 0,1,2 and "aaa" at 0,1.
	want := []Occurrence{
		{FragmentID: 0, Start: 0, End: 2},
		{FragmentID: 1, Start: 0, End: 3},
		{FragmentID: 0, Start: 1, End: 3},
		{FragmentID: 1, Start: 1, End: 4},
		{FragmentID: 0, Start: 2, End: 4},
	}
	if !reflect.DeepEqual(occs, want) {
		t.Errorf("occs = %v, want %v", occs, want)
	}
}

func TestCovers(t *testing.T) {
	s := NewSetKeepAll([]string{"SELECT * FROM t WHERE id=", "OR"})
	q := "SELECT * FROM t WHERE id=5"
	// The WHERE token at offsets 16..21 is inside fragment 0's occurrence.
	if !s.Covers(q, 0, 16, 21) {
		t.Error("fragment 0 should cover WHERE")
	}
	// Fragment OR does not occur in q.
	if s.Covers(q, 1, 16, 21) {
		t.Error("fragment OR should not cover anything in q")
	}
	// Span longer than fragment cannot be covered.
	if s.Covers(q, 1, 0, 10) {
		t.Error("short fragment cannot cover long span")
	}
	// Span at the very end.
	q2 := "x OR"
	if !s.Covers(q2, 1, 2, 4) {
		t.Error("OR at end should be covered")
	}
}

func TestCoversWindowEdges(t *testing.T) {
	s := NewSetKeepAll([]string{"abc"})
	if !s.Covers("abc", 0, 0, 3) {
		t.Error("exact cover at bounds")
	}
	if !s.Covers("abc", 0, 1, 2) {
		t.Error("inner span covered")
	}
	if s.Covers("ab", 0, 0, 2) {
		t.Error("fragment longer than query cannot occur")
	}
}

func TestMRUBasics(t *testing.T) {
	m := NewMRU(3)
	m.Touch(1)
	m.Touch(2)
	m.Touch(3)
	if got := m.IDs(); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Errorf("IDs = %v", got)
	}
	m.Touch(2) // move to front
	if got := m.IDs(); !reflect.DeepEqual(got, []int{2, 3, 1}) {
		t.Errorf("IDs after touch = %v", got)
	}
	m.Touch(4) // evicts 1
	if got := m.IDs(); !reflect.DeepEqual(got, []int{4, 2, 3}) {
		t.Errorf("IDs after evict = %v", got)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMRUDefaultCapacity(t *testing.T) {
	m := NewMRU(0)
	for i := 0; i < 100; i++ {
		m.Touch(i)
	}
	if m.Len() != 64 {
		t.Errorf("default capacity Len = %d, want 64", m.Len())
	}
	if m.IDs()[0] != 99 {
		t.Errorf("front = %d, want 99", m.IDs()[0])
	}
}

func TestMRUConcurrent(t *testing.T) {
	m := NewMRU(16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(seed int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				m.Touch((seed*31 + i) % 40)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if m.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity", m.Len())
	}
}

func TestSample(t *testing.T) {
	s := NewSetKeepAll([]string{"bb", "a", "ccc"})
	if got := s.Sample(2); !reflect.DeepEqual(got, []string{"ccc", "bb"}) {
		t.Errorf("Sample = %v", got)
	}
	if got := s.Sample(10); len(got) != 3 {
		t.Errorf("Sample(10) len = %d", len(got))
	}
}

func TestACMatcherEmptySet(t *testing.T) {
	s := NewSet(nil)
	ac := NewACMatcher(s)
	if occs := ac.FindAll("SELECT 1"); len(occs) != 0 {
		t.Errorf("empty set matched %v", occs)
	}
}

func TestMRUTouchIdempotentFront(t *testing.T) {
	f := func(ids []uint8) bool {
		m := NewMRU(8)
		for _, id := range ids {
			m.Touch(int(id))
		}
		if len(ids) == 0 {
			return m.Len() == 0
		}
		return m.IDs()[0] == int(ids[len(ids)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
