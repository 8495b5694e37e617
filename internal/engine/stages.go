package engine

import (
	"context"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// PTIStage runs cached positive taint inference. It publishes the lex it
// produces (on cache misses, into the State's token storage) so later
// stages reuse the token stream instead of lexing again. A query-cache
// hit publishes no tokens; it hands the State the hit entry's skeleton
// memo instead, which the profile stage reads and fills, and NTI lexes
// lazily only if an input's match could hold a critical token. A
// structure-cache hit hands no memo: its key normalizes the query
// differently from the skeleton.
type PTIStage struct {
	Analyzer *pti.Cached
}

// Name implements Analyzer.
func (s PTIStage) Name() string { return core.AnalyzerPTI }

// Analyze implements Analyzer.
func (s PTIStage) Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error {
	// The cache keys its entries by its own dialect; a memo is only the
	// request's skeleton when that is the request's.
	var memo *pti.SkeletonMemo
	if s.Analyzer.Dialect() == req.Dialect {
		memo = &st.memo
	}
	toks, err := s.Analyzer.AnalyzeBuf(ctx, req.Query, st.tokens, &st.tokBuf, memo, st.span, res)
	if err != nil {
		return err
	}
	st.PublishTokens(toks)
	return nil
}

// NTIStage runs negative taint inference over the request's inputs,
// reusing the token stream published by an earlier stage. Without one,
// the analyzer lexes into the State's token storage only when an input
// matches the query somewhere a critical token could lie: a match made
// only of inert bytes (digits) needs no tokens
// (sqltoken.Dialect.InertBytes).
type NTIStage struct {
	Analyzer *nti.Analyzer
}

// Name implements Analyzer.
func (s NTIStage) Name() string { return core.AnalyzerNTI }

// Analyze implements Analyzer.
func (s NTIStage) Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error {
	if !hasInputValues(req.Inputs) {
		// No non-empty inputs: nothing can be negatively tainted, and
		// skipping the analyzer keeps the warm no-input path allocation
		// free.
		return nil
	}
	return s.Analyzer.AnalyzeBuf(ctx, req.Query, st.tokens, &st.tokBuf, req.Inputs, st.span, res)
}

// hasInputValues reports whether any captured input carries a non-empty
// value.
func hasInputValues(inputs []nti.Input) bool {
	for _, in := range inputs {
		if in.Value != "" {
			return true
		}
	}
	return false
}

// ProfileStage is the third analyzer: per-call-site query-skeleton
// profiles. In learning mode (Recorder set) it records the skeleton of
// every query a site issues and never votes; in enforcement mode (Store
// set) it flags a query whose skeleton the site never issued during
// training. Requests without a Site skip the stage entirely — call-site
// identity is the profile key, and the stage cannot say anything without
// one.
//
// In enforcement under the request's dialect, a PTI query-cache hit
// answers the skeleton from the entry's memo: the lookup runs against the
// current store with no lex and no skeleton build. A memo may outlive a
// store swap, because skeleton text does not depend on the store. Without
// a memo, the stage builds its skeleton from the token stream an earlier
// stage published, or lexes into the State's token storage and publishes
// one for later stages, so a check lexes at most once; on a hit it then
// memoizes the skeleton it looked up. It shares tokens only when its
// profiles were computed under the request's dialect; otherwise it lexes
// a fresh slice under its own and publishes nothing. A learning Recorder
// never reads or writes the memo.
type ProfileStage struct {
	// Store is the frozen training profile consulted in enforcement.
	Store *profile.Store
	// Recorder, when non-nil, puts the stage in learning mode: skeletons
	// are recorded and the stage always reports clean.
	Recorder *profile.Recorder
	// BlockUnknownSites makes enforcement flag queries from sites with no
	// profile at all. Off by default: a training gap must degrade to "no
	// opinion", not take the application down.
	BlockUnknownSites bool
}

// Name implements Analyzer.
func (s ProfileStage) Name() string { return core.AnalyzerProfile }

// Analyze implements Analyzer.
func (s ProfileStage) Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error {
	if req.Site == "" {
		return nil
	}
	// Skeletons are only comparable when computed under the dialect the
	// store was trained (or the recorder records) under; snapshot builders
	// verify it matches the guard's via ForDialect.
	d := s.Store.Dialect()
	if s.Recorder != nil {
		d = s.Recorder.Dialect()
	}
	span := st.Span()
	useMemo := s.Recorder == nil && d == req.Dialect
	var sk string
	if useMemo {
		sk = st.memo.Skeleton()
	}
	var toks []sqltoken.Token
	if sk == "" {
		toks = profileTokens(req, d, st)
	}
	var start time.Time
	if span != nil {
		start = time.Now()
	}
	var lookup profile.Lookup
	if sk != "" {
		lookup = s.Store.Lookup(req.Site, sk)
	} else {
		st.skeletonBuf = profile.AppendSkeleton(st.skeletonBuf[:0], toks)
		if s.Recorder != nil {
			sk := string(st.skeletonBuf)
			s.Recorder.RecordSkeleton(req.Site, sk)
			if span != nil {
				span.ProfileTime(time.Since(start))
			}
			st.SetProfile(req.Site, sk, "learned")
			return nil
		}
		// A seen skeleton comes back as the store's own copy; any other
		// is copied once, for the verdict and the memo alike.
		lookup, sk = s.Store.LookupBytes(req.Site, st.skeletonBuf)
		if lookup != profile.SkeletonSeen {
			sk = string(st.skeletonBuf)
		}
		if useMemo {
			st.memo.Set(sk)
		}
	}
	outcome := "seen"
	switch lookup {
	case profile.SkeletonUnseen:
		outcome = "unseen"
		res.Attack = true
		res.Reasons = []core.Reason{{Kind: core.ReasonUnseen, Site: req.Site, Skeleton: sk}}
	case profile.SiteUnknown:
		outcome = "site-unknown"
		if s.BlockUnknownSites {
			res.Attack = true
			res.Reasons = []core.Reason{{Kind: core.ReasonSiteUnknown, Site: req.Site}}
		}
	}
	if span != nil {
		span.ProfileTime(time.Since(start))
	}
	st.SetProfile(req.Site, sk, outcome)
	return nil
}

// profileTokens returns the query's tokens under d, the profile's
// dialect: the stream an earlier stage published when d is the request's,
// else a lex, timed in the span. A request-dialect lex goes into the
// State's token storage and is published for later stages.
func profileTokens(req *Request, d sqltoken.Dialect, st *State) []sqltoken.Token {
	toks := st.Tokens()
	if toks != nil && d == req.Dialect {
		return toks
	}
	span := st.Span()
	var lexStart time.Time
	if span != nil {
		lexStart = time.Now()
	}
	if d == req.Dialect {
		st.tokBuf = d.AppendLex(st.tokBuf[:0], req.Query)
		toks = st.tokBuf
		st.PublishTokens(toks)
	} else {
		// The storage may hold the published request-dialect stream.
		toks = d.Lex(req.Query)
	}
	if span != nil {
		span.Lex(time.Since(lexStart))
	}
	return toks
}

// Func adapts a plain function into a pipeline stage, for baselines and
// tests. Its result replaces the stage's slot whole.
type Func struct {
	// StageName slots the result into the Verdict (core.AnalyzerNTI,
	// core.AnalyzerPTI or core.AnalyzerProfile); other names only feed the
	// attack decision.
	StageName string
	Fn        func(ctx context.Context, req Request, st *State) (core.Result, error)
}

// Name implements Analyzer.
func (f Func) Name() string { return f.StageName }

// Analyze implements Analyzer.
func (f Func) Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error {
	r, err := f.Fn(ctx, *req, st)
	*res = r
	return err
}
