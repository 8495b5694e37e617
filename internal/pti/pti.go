// Package pti implements positive taint inference: inferring which parts
// of a SQL query are trusted because they originate from string fragments
// extracted from the application itself, per Section III-B of the Joza
// paper.
//
// A query is PTI-safe when every critical token is fully contained within a
// single occurrence of a single trusted fragment. SQL comments are one
// critical token, so an evasion block smuggled inside a comment must appear
// verbatim in the program source to be trusted. Fragments are never
// combined: the critical token OR cannot be assembled from fragments "O"
// and "R".
//
// The default cover is one Aho–Corasick pass per query: it records the
// longest fragment ending at each byte, and a backward sweep then gives
// every critical token the occurrence with the leftmost start that ends at
// or after it, so the covered set and the markings depend on the query
// alone. Two of the paper's optimizations are switchable for ablation:
//
//   - parse-first (on by default): critical tokens are located before
//     matching, and only their coverage is verified (instead of marking
//     the whole query);
//   - MRU (off by default, WithMRU): fragments that recently covered
//     tokens are tried first with a targeted window check, the paper's
//     answer to the cost of its per-fragment scan.
package pti

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// Analyzer runs positive taint inference over a fixed fragment set.
// Construct with New; an Analyzer is safe for concurrent use.
type Analyzer struct {
	set        *fragments.Set
	matcher    fragments.Matcher
	mru        *fragments.MRU
	parseFirst bool
	// critical decides which tokens must be fragment-covered; the default
	// is the paper's pragmatic policy (identifiers allowed).
	critical func(sqltoken.Token) bool
	// maxQueryBytes caps the query size AnalyzeCtx accepts; maxTokens caps
	// the lexed token count it will scan. Zero disables either cap; both
	// fail with core.ErrOverBudget on the context-aware path.
	maxQueryBytes int
	maxTokens     int
	// dialect governs internal lexing when callers pass nil tokens. The
	// zero value is sqltoken.MySQL, preserving historical behavior.
	dialect sqltoken.Dialect
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithNaiveMatcher makes the analyzer use the unoptimized per-fragment
// scan; the default is the Aho–Corasick matcher. Used by the Figure 7
// "unoptimized PTI" baseline.
func WithNaiveMatcher() Option {
	return func(a *Analyzer) { a.matcher = fragments.NewNaiveMatcher(a.set) }
}

// WithMRU puts a list of the n most recently used covering fragments
// ahead of the cover table (n < 1 means 64): each critical token first
// probes those fragments with a window compare, the paper's optimization
// for its per-fragment scan. Only the paper-faithful Figure 7 and Table V
// harness enables it. A cover found there depends on the analyzer's
// history; the table's depends on the query alone.
func WithMRU(n int) Option {
	return func(a *Analyzer) { a.mru = fragments.NewMRU(n) }
}

// WithoutParseFirst disables the parse-first optimization: the analyzer
// computes all fragment occurrences and full positive markings before
// checking critical tokens.
func WithoutParseFirst() Option {
	return func(a *Analyzer) { a.parseFirst = false }
}

// WithMaxQueryBytes caps the query size the analyzer accepts: AnalyzeCtx
// fails a longer query with an error wrapping core.ErrOverBudget before
// lexing it. Zero (the default) disables the cap. Budgets apply on the
// context-aware path only — the legacy error-free entry points cannot
// report them.
func WithMaxQueryBytes(n int) Option {
	return func(a *Analyzer) { a.maxQueryBytes = n }
}

// WithMaxTokens caps the lexed token count AnalyzeCtx will cover-check; a
// longer stream fails with an error wrapping core.ErrOverBudget. This
// bounds the cover scan on machine-generated token floods that stay under
// the byte cap. Zero (the default) disables the cap.
func WithMaxTokens(n int) Option {
	return func(a *Analyzer) { a.maxTokens = n }
}

// WithDialect sets the SQL dialect the analyzer lexes under when it has to
// lex internally (nil toks). Callers that pass pre-lexed tokens must have
// lexed them under the same dialect. The default is sqltoken.MySQL.
func WithDialect(d sqltoken.Dialect) Option {
	return func(a *Analyzer) { a.dialect = d }
}

// WithStrictPolicy enforces the strict (Ray–Ligatti-style) policy of
// Section II: identifiers (field and table names) must also originate from
// trusted fragments.
func WithStrictPolicy() Option {
	return func(a *Analyzer) { a.critical = sqltoken.Token.CriticalStrict }
}

// New returns an Analyzer over set: Aho–Corasick matching, parse-first
// and no MRU.
func New(set *fragments.Set, opts ...Option) *Analyzer {
	a := &Analyzer{
		set:        set,
		parseFirst: true,
		critical:   sqltoken.Token.Critical,
	}
	for _, o := range opts {
		o(a)
	}
	if a.matcher == nil {
		a.matcher = fragments.NewACMatcher(set)
	}
	return a
}

// Set returns the fragment set the analyzer was built over.
func (a *Analyzer) Set() *fragments.Set { return a.set }

// Dialect returns the SQL dialect the analyzer lexes under.
func (a *Analyzer) Dialect() sqltoken.Dialect { return a.dialect }

// Analyze decides whether query is PTI-safe. toks must be the lex of query;
// pass nil to lex internally. Analyze applies no budgets: it has no way to
// report them (use AnalyzeCtx).
func (a *Analyzer) Analyze(query string, toks []sqltoken.Token) core.Result {
	if toks == nil {
		toks = a.dialect.Lex(query)
	}
	return a.analyze(query, toks, nil)
}

// AnalyzeCtx is Analyze with decision tracing, budgets and cancellation
// checkpoints before and after lexing. When span is non-nil it records, per
// critical token, which trusted fragment covered it (and where the fragment
// occurred) or that no fragment did — the evidence behind a PTI verdict; a
// nil span costs one pointer check per token. The cover scan itself is
// linear in the query and runs to completion; the expensive, checkpointed
// loop of the hybrid pipeline is NTI's approximate matcher. With
// context.Background() and no budgets AnalyzeCtx never fails and adds no
// work.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, query string, toks []sqltoken.Token, span *trace.Span) (core.Result, error) {
	cancelable := ctx.Done() != nil
	if cancelable {
		if err := ctx.Err(); err != nil {
			return core.Result{}, err
		}
	}
	if err := a.checkQueryBytes(query); err != nil {
		return core.Result{}, err
	}
	if toks == nil {
		toks = a.dialect.Lex(query)
		if cancelable {
			if err := ctx.Err(); err != nil {
				return core.Result{}, err
			}
		}
	}
	if a.maxTokens > 0 && len(toks) > a.maxTokens {
		return core.Result{}, fmt.Errorf("pti: %d tokens exceeds cap %d: %w",
			len(toks), a.maxTokens, core.ErrOverBudget)
	}
	return a.analyze(query, toks, span), nil
}

// checkQueryBytes refuses a query over the byte cap, before any work on it.
func (a *Analyzer) checkQueryBytes(query string) error {
	if a.maxQueryBytes > 0 && len(query) > a.maxQueryBytes {
		return fmt.Errorf("pti: query %d bytes exceeds cap %d: %w",
			len(query), a.maxQueryBytes, core.ErrOverBudget)
	}
	return nil
}

// analyze runs the configured cover strategy over a lexed query.
func (a *Analyzer) analyze(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	if a.parseFirst {
		return a.analyzeParseFirst(query, toks, span)
	}
	return a.analyzeFullMarking(query, toks, span)
}

// analyzeParseFirst checks each critical token against one cover table
// built by a single matcher pass, probing the MRU first when one is
// configured. Markings and reasons gather in pooled scratch and leave it
// at their exact size.
func (a *Analyzer) analyzeParseFirst(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	sc := parseScratches.Get().(*parseScratch)
	defer sc.release()
	var tbl coverTable
	for _, t := range toks {
		if !a.critical(t) {
			continue
		}
		c, ok := a.mruCover(query, t)
		if !ok {
			if tbl.long == nil {
				tbl = a.newCoverTable(query, &sc.cover)
			}
			c, ok = tbl.cover(a.set, t)
			if ok && a.mru != nil {
				a.mru.Touch(c.FragmentID)
			}
		}
		if !ok {
			sc.reasons = append(sc.reasons, uncovered(t, span))
			continue
		}
		sc.markings = append(sc.markings, core.Marking{
			Span:   sqltoken.Span{Start: c.FragStart, End: c.FragEnd},
			Source: a.set.Fragment(c.FragmentID),
		})
		if span.Active() {
			c.Token, c.TokenStart, c.TokenEnd = t.Text, t.Start, t.End
			span.AddCover(c)
		}
	}
	return core.Result{
		Analyzer: core.AnalyzerPTI,
		Attack:   len(sc.reasons) > 0,
		Markings: core.ExactCopy(sc.markings),
		Reasons:  core.ExactCopy(sc.reasons),
	}
}

// parseScratch is analyzeParseFirst's pooled working storage: the cover
// table's entries and the evidence gathered before it is copied out.
type parseScratch struct {
	cover    []int32
	markings []core.Marking
	reasons  []core.Reason
}

var parseScratches = sync.Pool{New: func() any { return new(parseScratch) }}

// maxPooledCover and maxPooledEvidence bound the storage a pooled
// parseScratch keeps, so one huge query does not pin its table or its
// evidence.
const (
	maxPooledCover    = 64 << 10 // bytes, at 4 per int32 entry
	maxPooledEvidence = 1024     // markings or reasons
)

// release clears the evidence, which holds query text, and returns sc to
// the pool.
func (sc *parseScratch) release() {
	clear(sc.markings)
	clear(sc.reasons)
	sc.markings, sc.reasons = sc.markings[:0], sc.reasons[:0]
	if cap(sc.cover)*4 > maxPooledCover || cap(sc.markings) > maxPooledEvidence || cap(sc.reasons) > maxPooledEvidence {
		return
	}
	parseScratches.Put(sc)
}

// mruCover probes the MRU fragments for an occurrence containing t.
func (a *Analyzer) mruCover(query string, t sqltoken.Token) (trace.Cover, bool) {
	if a.mru == nil {
		return trace.Cover{}, false
	}
	for _, id := range a.mru.IDs() {
		if at, ok := a.set.CoverAt(query, id, t.Start, t.End); ok {
			a.mru.Touch(id)
			return trace.Cover{FragmentID: id, FragStart: at, FragEnd: at + len(a.set.Fragment(id)), MRU: true}, true
		}
	}
	return trace.Cover{}, false
}

// coverTable answers PTI's question for every critical token of one
// query. long[i] is the longest fragment ending at byte i and best[i] the
// last byte of the occurrence with the leftmost start among all that end
// at or after i, the earlier end on equal starts (-1 for none in either).
// A token [s,e) lies inside one occurrence exactly when best[e-1] starts
// at or before s, so the cover depends on the query alone.
type coverTable struct {
	long, best []int32
}

// newCoverTable builds query's table from one matcher pass and one
// backward sweep, in the storage *buf (not nil), which it leaves there
// for reuse.
func (a *Analyzer) newCoverTable(query string, buf *[]int32) coverTable {
	n := len(query)
	b := a.matcher.Longest(query, (*buf)[:0])
	b = slices.Grow(b, n)[:2*n]
	*buf = b
	tbl := coverTable{long: b[:n], best: b[n:]}
	bestEnd, bestStart := int32(-1), n
	for i := n - 1; i >= 0; i-- {
		if id := tbl.long[i]; id >= 0 {
			if s := i + 1 - len(a.set.Fragment(int(id))); s <= bestStart {
				bestEnd, bestStart = int32(i), s
			}
		}
		tbl.best[i] = bestEnd
	}
	return tbl
}

// cover returns the occurrence the table assigns to t, if it contains t.
func (tbl coverTable) cover(set *fragments.Set, t sqltoken.Token) (trace.Cover, bool) {
	if t.End <= 0 || t.End > len(tbl.best) {
		return trace.Cover{}, false
	}
	last := tbl.best[t.End-1]
	if last < 0 {
		return trace.Cover{}, false
	}
	id := int(tbl.long[last])
	end := int(last) + 1
	start := end - len(set.Fragment(id))
	if start > t.Start {
		return trace.Cover{}, false
	}
	return trace.Cover{FragmentID: id, FragStart: start, FragEnd: end}, true
}

// uncovered records t as a critical token no trusted fragment contains.
func uncovered(t sqltoken.Token, span *trace.Span) core.Reason {
	if span.Active() {
		span.AddUncovered(trace.Uncovered{Token: t.Text, TokenStart: t.Start, TokenEnd: t.End})
	}
	return core.Reason{
		Token:  t,
		Detail: "critical token not contained in any trusted fragment",
	}
}

// analyzeFullMarking computes every fragment occurrence, reports them all
// as positive markings, then checks critical-token containment. This is
// the unoptimized strategy retained for ablation benchmarks.
func (a *Analyzer) analyzeFullMarking(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI}
	occs := a.matcher.FindAll(query)
	res.Markings = make([]core.Marking, 0, len(occs))
	for _, o := range occs {
		res.Markings = append(res.Markings, core.Marking{
			Span:   sqltoken.Span{Start: o.Start, End: o.End},
			Source: a.set.Fragment(o.FragmentID),
		})
	}
	for _, t := range toks {
		if !a.critical(t) {
			continue
		}
		covered := false
		for _, o := range occs {
			if o.Start <= t.Start && t.End <= o.End {
				covered = true
				if span.Active() {
					span.AddCover(trace.Cover{
						Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
						FragmentID: o.FragmentID, FragStart: o.Start, FragEnd: o.End,
					})
				}
				break
			}
		}
		if !covered {
			res.Reasons = append(res.Reasons, uncovered(t, span))
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res
}

// String describes the analyzer configuration.
func (a *Analyzer) String() string {
	return fmt.Sprintf("pti.Analyzer{fragments=%d, parseFirst=%v, mru=%v}",
		a.set.Len(), a.parseFirst, a.mru != nil)
}
