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
// Two of the paper's optimizations are implemented and individually
// switchable for ablation:
//
//   - parse-first: critical tokens are located before matching, and only
//     their coverage is verified (instead of marking the whole query);
//   - MRU: fragments that recently covered tokens are tried first with a
//     targeted window check, exploiting the small SQL working set of web
//     applications.
package pti

import (
	"context"
	"fmt"

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

// WithoutMRU disables the most-recently-used fragment cache.
func WithoutMRU() Option {
	return func(a *Analyzer) { a.mru = nil }
}

// WithMRUCapacity sets the MRU capacity (default 64).
func WithMRUCapacity(n int) Option {
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

// New returns an Analyzer over set with all optimizations enabled.
func New(set *fragments.Set, opts ...Option) *Analyzer {
	a := &Analyzer{
		set:        set,
		mru:        fragments.NewMRU(64),
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

// analyzeParseFirst verifies coverage of each critical token directly,
// trying MRU fragments with a targeted window check before falling back to
// a single full occurrence scan.
func (a *Analyzer) analyzeParseFirst(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI}
	var occs []fragments.Occurrence
	occsReady := false
	for _, t := range toks {
		if !a.critical(t) {
			continue
		}
		covered := false
		if a.mru != nil {
			for _, id := range a.mru.IDs() {
				if at, ok := a.set.CoverAt(query, id, t.Start, t.End); ok {
					covered = true
					a.mru.Touch(id)
					res.Markings = append(res.Markings, core.Marking{
						Span:   sqltoken.Span{Start: at, End: at + len(a.set.Fragment(id))},
						Source: a.set.Fragment(id),
					})
					if span.Active() {
						span.AddCover(trace.Cover{
							Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
							FragmentID: id, FragStart: at, FragEnd: at + len(a.set.Fragment(id)),
							MRU: true,
						})
					}
					break
				}
			}
		}
		if !covered {
			if !occsReady {
				occs = a.matcher.FindAll(query)
				occsReady = true
			}
			for _, o := range occs {
				if o.Start <= t.Start && t.End <= o.End {
					covered = true
					if a.mru != nil {
						a.mru.Touch(o.FragmentID)
					}
					res.Markings = append(res.Markings, core.Marking{
						Span:   sqltoken.Span{Start: o.Start, End: o.End},
						Source: a.set.Fragment(o.FragmentID),
					})
					if span.Active() {
						span.AddCover(trace.Cover{
							Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
							FragmentID: o.FragmentID, FragStart: o.Start, FragEnd: o.End,
						})
					}
					break
				}
			}
		}
		if !covered {
			res.Reasons = append(res.Reasons, core.Reason{
				Token:  t,
				Detail: "critical token not contained in any trusted fragment",
			})
			if span.Active() {
				span.AddUncovered(trace.Uncovered{Token: t.Text, TokenStart: t.Start, TokenEnd: t.End})
			}
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res
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
			res.Reasons = append(res.Reasons, core.Reason{
				Token:  t,
				Detail: "critical token not contained in any trusted fragment",
			})
			if span.Active() {
				span.AddUncovered(trace.Uncovered{Token: t.Text, TokenStart: t.Start, TokenEnd: t.End})
			}
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
