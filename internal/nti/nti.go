// Package nti implements negative taint inference: inferring which parts
// of a SQL query derive from untrusted application input by approximate
// string matching, per Section III-A of the Joza paper.
//
// For every captured input p and intercepted query q, NTI computes the
// substring of q with minimum edit distance to p. The difference ratio —
// distance divided by the length of the matched substring — is compared to
// a threshold (default 0.20): below the threshold, the matched span is
// marked negatively tainted. An attack is reported when a negatively
// tainted span (that covers at least one whole SQL token) fully contains a
// critical token. Markings inferred from different inputs are never
// combined, and short inputs cannot trigger an alarm unless they cover a
// whole token, both per the paper's false-positive mitigations.
//
// Two layers keep the per-check cost sub-quadratic in practice (the
// Section VI "skip implausible comparisons" optimizations): a q-gram
// prefilter (prefilter.go) rejects most input×query pairs in O(n), and
// the default matcher is the bit-parallel engine
// (strdist.BitParallelThresholdBudgetCtx). Its Myers scan finds the best
// distance over the whole query and a reverse pass bounds the longest
// span at that distance, 64 DP cells per word; that decides misses and
// near-misses (evasions padded just past the threshold) outright. Only
// pairs that may match run the cell-at-a-time Sellers DP, and only on
// the window of query columns that can hold the match.
package nti

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/sqltoken"
	"joza/internal/strdist"
	"joza/internal/trace"
)

// DefaultThreshold is the difference-ratio threshold used when none is
// configured. The paper's running example uses 20%: a magic-quotes-inflated
// payload at 22.7% escapes matching.
const DefaultThreshold = 0.20

// maxExactRegions caps how many coalesced exact-occurrence regions one
// input may mark. A pathological pair (a tiny input scattered through a
// huge query) otherwise manufactures unbounded markings and an unbounded
// addAttackReasons scan; past the cap the remaining occurrences go unmarked,
// which only ever suppresses markings that repeat ones already recorded.
const maxExactRegions = 512

// maxApproxInputLen is the longest input the approximate matcher is run
// on. Its cost grows with len(query)·len(input), so a longer input that
// occurs in the query only changed (escaped, say) and passes the
// prefilter fails the analysis with core.ErrOverBudget, and the engine's
// failure mode decides the check. Skipping it instead would let a payload
// through unmarked. Exact occurrences of any length are still marked by
// the fast path.
const maxApproxInputLen = 4096

// Input is one captured application input value.
type Input struct {
	// Source is the input channel: "get", "post", "cookie", "header", ...
	Source string
	// Name is the parameter name within the source.
	Name string
	// Value is the raw value as received, before any application
	// transformation (Joza's preprocessing stores inputs at request entry).
	Value string
}

// Key returns the "source:name" identifier that labels the input's
// markings (core.Marking.Label) and reasons.
func (in Input) Key() string { return in.Source + ":" + in.Name }

// Analyzer runs negative taint inference. The zero value is not usable;
// construct with New.
type Analyzer struct {
	threshold float64
	// sellers selects the cell-at-a-time Sellers DP instead of the
	// default bit-parallel engine (WithSellersMatcher).
	sellers bool
	// prefilter enables the q-gram reject stage ahead of the matcher.
	prefilter bool
	// critical decides which tokens an attack may not touch; the default
	// is the paper's pragmatic policy (identifiers allowed).
	critical func(sqltoken.Token) bool
	// maxQueryBytes caps the query size AnalyzeCtx will analyze; longer
	// queries fail with core.ErrOverBudget. Zero disables the cap.
	maxQueryBytes int
	// dpCellBudget caps the DP cells one input/query pair may compute in
	// the approximate matcher; exceeding it fails the analysis with
	// core.ErrOverBudget. Zero disables the cap. The exact-occurrence
	// scan charges its probed bytes against the same cap.
	dpCellBudget int

	// dialect governs internal lexing when callers pass nil tokens; the
	// zero value is sqltoken.MySQL, preserving historical behavior.
	dialect sqltoken.Dialect
	// inert is the dialect's inert-byte set when the policy never counts
	// a number as critical, so a match made only of inert bytes cannot
	// yield a reason and needs no lex; nil otherwise.
	inert *[256]bool

	matcherCalls     atomic.Uint64
	earlyExits       atomic.Uint64
	prefilterChecks  atomic.Uint64
	prefilterRejects atomic.Uint64
}

// Stats counts the analyzer's matching activity: how often input×query
// pairs reached the prefilter and were rejected there, how often the
// approximate matcher actually ran, and how often it abandoned the
// comparison early (threshold band exhausted or bit-parallel scan miss).
type Stats struct {
	MatcherCalls     uint64
	EarlyExits       uint64
	PrefilterChecks  uint64
	PrefilterRejects uint64
}

// Dialect returns the SQL dialect the analyzer lexes under.
func (a *Analyzer) Dialect() sqltoken.Dialect { return a.dialect }

// Stats returns a snapshot of the matcher counters.
func (a *Analyzer) Stats() Stats {
	return Stats{
		MatcherCalls:     a.matcherCalls.Load(),
		EarlyExits:       a.earlyExits.Load(),
		PrefilterChecks:  a.prefilterChecks.Load(),
		PrefilterRejects: a.prefilterRejects.Load(),
	}
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithThreshold sets the difference-ratio threshold.
func WithThreshold(t float64) Option {
	return func(a *Analyzer) { a.threshold = t }
}

// WithSellersMatcher selects the cell-at-a-time banded Sellers engine
// instead of the default bit-parallel one (ablations, differential
// tests, before/after benchmarks).
func WithSellersMatcher() Option {
	return func(a *Analyzer) { a.sellers = true }
}

// WithoutPrefilter disables the q-gram prefilter, sending every surviving
// pair straight to the matcher (ablations and benchmarks).
func WithoutPrefilter() Option {
	return func(a *Analyzer) { a.prefilter = false }
}

// WithMaxQueryBytes caps the query size the analyzer accepts: AnalyzeCtx
// fails a longer query with an error wrapping core.ErrOverBudget, which
// the engine resolves through its failure mode. Zero (the default)
// disables the cap. Budgets are enforced on the context-aware path only —
// the legacy error-free entry points cannot report them.
func WithMaxQueryBytes(n int) Option {
	return func(a *Analyzer) { a.maxQueryBytes = n }
}

// WithDPCellBudget caps the dynamic-programming cells the approximate
// matcher may compute for one input/query pair; a comparison that crosses
// the cap fails the analysis with an error wrapping core.ErrOverBudget.
// This bounds the worst-case O(n·m) work a hostile input can demand
// regardless of deadline. Zero (the default) disables the cap.
func WithDPCellBudget(n int) Option {
	return func(a *Analyzer) { a.dpCellBudget = n }
}

// WithDialect sets the SQL dialect the analyzer lexes under when it has
// to lex internally (nil toks). Callers passing pre-lexed tokens must have
// lexed them under the same dialect. The default is sqltoken.MySQL.
func WithDialect(d sqltoken.Dialect) Option {
	return func(a *Analyzer) { a.dialect = d }
}

// WithStrictPolicy enforces the strict (Ray–Ligatti-style) policy of
// Section II: input-derived identifiers (field and table names) are also
// attacks. The default pragmatic policy permits them, since applications
// with advanced search legitimately pass field names through input.
func WithStrictPolicy() Option {
	return func(a *Analyzer) { a.critical = sqltoken.Token.CriticalStrict }
}

// New returns an Analyzer with the default threshold, the q-gram
// prefilter, and the bit-parallel matching engine.
func New(opts ...Option) *Analyzer {
	a := &Analyzer{
		threshold: DefaultThreshold,
		prefilter: true,
		critical:  sqltoken.Token.Critical,
	}
	for _, o := range opts {
		o(a)
	}
	if !a.critical(sqltoken.Token{Kind: sqltoken.KindNumber}) {
		a.inert = a.dialect.InertBytes()
	}
	return a
}

// MustNew is New. It remains because the benchmark suite's replay
// (jozasuite) builds its analyzers through it.
func MustNew(opts ...Option) *Analyzer { return New(opts...) }

// Threshold returns the configured difference-ratio threshold.
func (a *Analyzer) Threshold() float64 { return a.threshold }

// Analyze infers negative taint markings for query given the captured
// inputs and decides whether the query is an attack. toks must be the lex
// of query (callers typically already have it from the PTI daemon; pass
// nil to lex here).
func (a *Analyzer) Analyze(query string, toks []sqltoken.Token, inputs []Input) core.Result {
	res, _ := a.AnalyzeCtx(context.Background(), query, toks, inputs, nil)
	return res
}

// AnalyzeCtx is AnalyzeBuf lexing into a fresh slice and returning the
// result.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, query string, toks []sqltoken.Token, inputs []Input, span *trace.Span) (core.Result, error) {
	var (
		buf []sqltoken.Token
		res core.Result
	)
	err := a.AnalyzeBuf(ctx, query, toks, &buf, inputs, span, &res)
	return res, err
}

// AnalyzeBuf is Analyze with caller-owned lex storage, decision tracing
// and cooperative cancellation, writing the result into *res (not nil);
// on an error *res holds an empty NTI result. When toks is nil the query
// is lexed only once an input matches it somewhere a critical token could
// lie: spans made only of the dialect's inert bytes (the digits; see
// sqltoken.Dialect.InertBytes) are marked without a lex, since they can
// contain no critical token and so yield no reason. buf (not nil) is the
// storage that lex appends to ((*buf)[:0]), and the stream is left in
// *buf, so storage reused across checks lexes without allocating. When
// span is non-nil it records per-input match durations and the matched
// span offsets behind every marking, plus the lazy-lex time if lexing
// happened here; a nil span adds one pointer check per input and nothing
// else. ctx is checked between input groups and polled inside the
// matcher, so a canceled or expired context aborts a long multi-input
// analysis mid-match with ctx's error. With context.Background() the
// checks are free and the function fails only on a configured budget.
func (a *Analyzer) AnalyzeBuf(ctx context.Context, query string, toks []sqltoken.Token, buf *[]sqltoken.Token, inputs []Input, span *trace.Span, res *core.Result) error {
	*res = core.Result{Analyzer: core.AnalyzerNTI}
	if a.maxQueryBytes > 0 && len(query) > a.maxQueryBytes {
		return fmt.Errorf("nti: query %d bytes exceeds cap %d: %w",
			len(query), a.maxQueryBytes, core.ErrOverBudget)
	}
	cancelable := ctx.Done() != nil
	// A few inputs (the common hot path) group in these stack buffers, and
	// their markings gather in markBuf until they leave it at exact size.
	var (
		groupBuf [scanInputs]inputGroup
		nextBuf  [scanInputs]int
		markBuf  [stackMarkings]core.Marking
	)
	groups, next := dedupInputs(groupBuf[:0], nextBuf[:0], inputs)
	marks := markBuf[:0]
	st := checkState{timed: span.Active()}
	defer st.release()
	for gi := range groups {
		g := &groups[gi]
		if cancelable {
			if err := ctx.Err(); err != nil {
				*res = core.Result{Analyzer: core.AnalyzerNTI}
				return err
			}
		}
		var matchStart time.Time
		if st.timed {
			matchStart = time.Now()
		}
		st.rejected = false
		spans, err := a.matchInput(ctx, g.value, query, &st)
		if err != nil {
			*res = core.Result{Analyzer: core.AnalyzerNTI}
			return err
		}
		// The attribution is rendered only when a trace, a reason or a
		// mirrored value shows it: a benign check of single inputs never
		// builds it.
		var label string
		if st.timed {
			label = g.sourceLabel(inputs, next)
			im := trace.InputMatch{
				Index:             gi,
				Source:            label,
				MatchNs:           int64(time.Since(matchStart)),
				Matched:           len(spans) > 0,
				PrefilterRejected: st.rejected,
			}
			if len(spans) > 0 {
				im.Start, im.End, im.Distance = spans[0].Start, spans[0].End, spans[0].Distance
			}
			span.AddInput(im)
		}
		if len(spans) == 0 {
			continue
		}
		if toks == nil && !inertSpans(a.inert, query, spans) {
			// Lex lazily: requests whose inputs never match the query
			// (and requests with no inputs at all) skip the lexer, and so
			// do inputs matching only inert spans, whose markings
			// addAttackReasons passes over without tokens.
			var lexStart time.Time
			if st.timed {
				lexStart = time.Now()
			}
			toks = a.dialect.AppendLex((*buf)[:0], query)
			*buf = toks
			if st.timed {
				span.Lex(time.Since(lexStart))
			}
		}
		// One input's marking keeps its source and name apart; a mirrored
		// value's carries the rendered label.
		var m core.Marking
		if g.first == g.last {
			in := &inputs[g.first]
			m = core.InputMarking(sqltoken.Span{}, in.Source, in.Name)
		} else {
			if label == "" {
				label = g.sourceLabel(inputs, next)
			}
			m.Source = label
		}
		from := st.reasonCount()
		for _, sp := range spans {
			m.Span = sqltoken.Span{Start: sp.Start, End: sp.End}
			marks = st.addMarking(marks, m)
			st.addAttackReasons(toks, sp, a.critical)
		}
		if st.reasonCount() > from {
			if label == "" {
				label = g.sourceLabel(inputs, next)
			}
			added := (*st.reasons)[from:]
			for i := range added {
				added[i].Input = label
			}
		}
	}
	if st.timed && st.prefilterNs > 0 {
		span.NTIPrefilter(time.Duration(st.prefilterNs))
	}
	res.Markings = core.ExactCopy(st.markings(marks))
	if st.reasons != nil {
		res.Reasons = core.ExactCopy(*st.reasons)
	}
	res.Attack = len(res.Reasons) > 0
	return nil
}

// stackMarkings is how many markings a check gathers on its stack before
// moving them to pooled storage.
const stackMarkings = 8

// scanInputs is the most inputs dedupInputs groups by scanning the groups
// so far; more get a value index, so a request carrying thousands of
// inputs costs linear time, not quadratic. AnalyzeCtx holds that many
// groups on its stack.
const scanInputs = 8

// inputGroup is one distinct raw value and the inputs that carried it, by
// index into the analyzed inputs: first, then along the next chain
// dedupInputs returns, ending at last. Keys stay discrete — a parameter
// name may itself contain a comma — and are only joined for rendering.
type inputGroup struct {
	value       string
	first, last int
}

// sourceLabel renders the group's attribution for traces, reasons and a
// mirrored value's markings: the "source:name" key of each member,
// comma-joined.
func (g *inputGroup) sourceLabel(inputs []Input, next []int) string {
	if g.first == g.last {
		return inputs[g.first].Key()
	}
	n := -1
	for i := g.first; ; i = next[i] {
		n += len(inputs[i].Source) + len(inputs[i].Name) + 2
		if i == g.last {
			break
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := g.first; ; i = next[i] {
		if i != g.first {
			sb.WriteByte(',')
		}
		sb.WriteString(inputs[i].Source)
		sb.WriteByte(':')
		sb.WriteString(inputs[i].Name)
		if i == g.last {
			break
		}
	}
	return sb.String()
}

// dedupInputs groups inputs by raw value, preserving first-seen order, and
// appends the groups to groups. next[i] is the index of the input after i
// in i's group; a chain ends at its group's last. A value mirrored across
// channels (the same payload in GET and a cookie, say) pays the quadratic
// matcher once, and its marking attributes every source key instead of
// emitting duplicate markings and duplicate attack reasons. An input whose
// key renders like one already in its group is left out of it.
func dedupInputs(groups []inputGroup, next []int, inputs []Input) ([]inputGroup, []int) {
	next = slices.Grow(next[:0], len(inputs))[:len(inputs)]
	var index map[string]int
	if len(inputs) > scanInputs {
		index = make(map[string]int, len(inputs))
	}
	for i, in := range inputs {
		if in.Value == "" {
			continue
		}
		gi, ok := index[in.Value]
		if index == nil {
			gi = slices.IndexFunc(groups, func(g inputGroup) bool { return g.value == in.Value })
			ok = gi >= 0
		}
		if !ok {
			if index != nil {
				index[in.Value] = len(groups)
			}
			groups = append(groups, inputGroup{value: in.Value, first: i, last: i})
			continue
		}
		g := &groups[gi]
		if !g.hasKey(inputs, next, in) {
			next[g.last], g.last = i, i
		}
	}
	return groups, next
}

// hasKey reports whether a member of g has the same "source:name" key as
// in. Keys compare as rendered strings, so ("a:b", "c") and ("a", "b:c")
// are one key.
func (g *inputGroup) hasKey(inputs []Input, next []int, in Input) bool {
	for i := g.first; ; i = next[i] {
		if sameKey(inputs[i], in) {
			return true
		}
		if i == g.last {
			return false
		}
	}
}

// sameKey reports whether a.Key() == b.Key() without building either.
func sameKey(a, b Input) bool {
	if a.Source == b.Source {
		return a.Name == b.Name
	}
	n := len(a.Source) + 1 + len(a.Name)
	if n != len(b.Source)+1+len(b.Name) {
		return false
	}
	for i := 0; i < n; i++ {
		if keyByte(a, i) != keyByte(b, i) {
			return false
		}
	}
	return true
}

// keyByte returns byte i of in.Key().
func keyByte(in Input, i int) byte {
	switch {
	case i < len(in.Source):
		return in.Source[i]
	case i == len(in.Source):
		return ':'
	default:
		return in.Name[i-len(in.Source)-1]
	}
}

// matchInput returns the spans of query that value matches under the
// threshold, built in st's span storage: they are valid until the next
// call. Exact occurrences are marked as coalesced covered regions;
// otherwise the single best approximate match is considered. The fast
// path charges its probed bytes against the DP cell budget, the prefilter
// is O(n), the matcher observes ctx and the budget itself, and an input
// past maxApproxInputLen never reaches it.
func (a *Analyzer) matchInput(ctx context.Context, value, query string, st *checkState) ([]strdist.Match, error) {
	// Fast path: every exact occurrence is a zero-distance match.
	// Overlapping or adjacent occurrences coalesce into one region — a
	// 1-byte value against a repetitive query marks covered stretches, not
	// one marking per position.
	if idx := strings.Index(query, value); idx >= 0 {
		budget := a.dpCellBudget
		out := append(st.spans[:0], strdist.Match{Start: idx, End: idx + len(value)})
		for from := idx; ; {
			nxt := strings.Index(query[from+1:], value)
			if nxt < 0 {
				break
			}
			if budget > 0 {
				if budget -= nxt + len(value); budget <= 0 {
					return nil, fmt.Errorf("nti: exact-occurrence scan against %d-byte query: %w",
						len(query), core.ErrOverBudget)
				}
			}
			from = from + 1 + nxt
			if last := &out[len(out)-1]; from <= last.End {
				last.End = from + len(value)
				continue
			}
			if len(out) >= maxExactRegions {
				break
			}
			out = append(out, strdist.Match{Start: from, End: from + len(value)})
		}
		return out, nil
	}
	// Pruning heuristic: if even a full-length match of the whole query
	// cannot get the ratio under threshold (input much longer than query),
	// skip the quadratic matcher.
	if len(query) > 0 {
		minDist := len(value) - len(query)
		if minDist > 0 && float64(minDist)/float64(len(query)) >= a.threshold {
			return nil, nil
		}
	}
	if a.prefilter {
		a.prefilterChecks.Add(1)
		var t0 time.Time
		if st.timed {
			t0 = time.Now()
		}
		reject := a.prefilterReject(value, query, st)
		if st.timed {
			st.prefilterNs += int64(time.Since(t0))
		}
		if reject {
			a.prefilterRejects.Add(1)
			st.rejected = true
			return nil, nil
		}
	}
	if len(value) > maxApproxInputLen {
		return nil, fmt.Errorf("nti: %d-byte input exceeds the %d-byte approximate-matching cap: %w",
			len(value), maxApproxInputLen, core.ErrOverBudget)
	}
	a.matcherCalls.Add(1)
	match := strdist.BitParallelThresholdBudgetCtx
	if a.sellers {
		match = strdist.SubstringMatchThresholdBudgetCtx
	}
	m, found, pruned, err := match(ctx, value, query, a.threshold, a.dpCellBudget)
	if err != nil {
		if errors.Is(err, strdist.ErrBudget) {
			return nil, fmt.Errorf("nti: input match against %d-byte query: %w",
				len(query), core.ErrOverBudget)
		}
		return nil, err
	}
	if pruned {
		a.earlyExits.Add(1)
	}
	if found {
		return append(st.spans[:0], m), nil
	}
	return nil, nil
}

// inertSpans reports whether every byte of query under spans is in the
// inert set (false for a nil set). A critical token contained in such a
// span would be made only of inert bytes, and no such token is critical.
func inertSpans(inert *[256]bool, query string, spans []strdist.Match) bool {
	if inert == nil {
		return false
	}
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i++ {
			if !inert[query[i]] {
				return false
			}
		}
	}
	return true
}

// addAttackReasons adds to the check's reasons one per critical token
// fully contained in the matched span sp, provided sp covers at least one
// whole SQL token. With nil toks (an unlexed query) it adds nothing. The
// reasons leave Input empty for the caller to attribute. The reason
// scratch is taken from its pool at the first reason, so a match without
// one costs only the token scan.
func (st *checkState) addAttackReasons(toks []sqltoken.Token, sp strdist.Match, critical func(sqltoken.Token) bool) {
	if !sqltoken.CoversWholeToken(toks, sp.Start, sp.End) {
		return
	}
	m := sqltoken.Span{Start: sp.Start, End: sp.End}
	for _, t := range toks {
		if critical(t) && m.Contains(t.Span()) {
			if st.reasons == nil {
				st.reasons = reasonBufs.Get().(*[]core.Reason)
			}
			*st.reasons = append(*st.reasons, core.Reason{
				Token:    t,
				Kind:     core.ReasonNTI,
				Distance: sp.Distance,
				Width:    m.Len(),
			})
		}
	}
}
