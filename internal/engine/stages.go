package engine

import (
	"context"
	"fmt"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
)

// PTIStage runs cached positive taint inference. It publishes the lex it
// produces (on cache misses) so a following NTI stage reuses the token
// stream instead of lexing again; cache hits publish nothing and the NTI
// stage lexes lazily only if an input actually matches the query.
type PTIStage struct {
	Analyzer *pti.Cached
}

// Name implements Analyzer.
func (s PTIStage) Name() string { return core.AnalyzerPTI }

// Analyze implements Analyzer.
func (s PTIStage) Analyze(ctx context.Context, req Request, st *State) (core.Result, error) {
	res, toks, err := s.Analyzer.AnalyzeLazyCtx(ctx, req.Query, st.Tokens(), st.Span())
	if err != nil {
		return core.Result{}, err
	}
	st.PublishTokens(toks)
	return res, nil
}

// NTIStage runs negative taint inference over the request's inputs,
// reusing the token stream published by an earlier stage (and lexing
// lazily inside the analyzer only when an input matches the query).
type NTIStage struct {
	Analyzer *nti.Analyzer
}

// Name implements Analyzer.
func (s NTIStage) Name() string { return core.AnalyzerNTI }

// Analyze implements Analyzer.
func (s NTIStage) Analyze(ctx context.Context, req Request, st *State) (core.Result, error) {
	if !hasInputValues(req.Inputs) {
		// No non-empty inputs: nothing can be negatively tainted, and
		// skipping the analyzer keeps the warm no-input path allocation
		// free.
		return core.Result{Analyzer: core.AnalyzerNTI}, nil
	}
	return s.Analyzer.AnalyzeCtx(ctx, req.Query, st.Tokens(), req.Inputs, st.Span())
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
func (s ProfileStage) Analyze(ctx context.Context, req Request, st *State) (core.Result, error) {
	res := core.Result{Analyzer: core.AnalyzerProfile}
	if req.Site == "" {
		return res, nil
	}
	span := st.Span()
	var start time.Time
	if span != nil {
		start = time.Now()
	}
	if s.Recorder != nil {
		sk := s.Recorder.Record(req.Site, req.Query)
		if span != nil {
			span.ProfileTime(time.Since(start))
		}
		st.SetProfile(req.Site, sk, "learned")
		return res, nil
	}
	// The store records the dialect it was trained under; skeletons are
	// only comparable when computed under the same one (snapshot builders
	// verify the store matches the guard's dialect via ForDialect).
	sk := profile.SkeletonDialect(s.Store.Dialect(), req.Query)
	lookup := s.Store.Lookup(req.Site, sk)
	outcome := "seen"
	switch lookup {
	case profile.SkeletonUnseen:
		outcome = "unseen"
		res.Attack = true
		res.Reasons = []core.Reason{{Detail: fmt.Sprintf(
			"query skeleton never seen from call site %q during training: %s", req.Site, sk)}}
	case profile.SiteUnknown:
		outcome = "site-unknown"
		if s.BlockUnknownSites {
			res.Attack = true
			res.Reasons = []core.Reason{{Detail: fmt.Sprintf(
				"call site %q has no training profile (strict mode)", req.Site)}}
		}
	}
	if span != nil {
		span.ProfileTime(time.Since(start))
	}
	st.SetProfile(req.Site, sk, outcome)
	return res, nil
}

// Func adapts a plain function into a pipeline stage, for baselines and
// tests.
type Func struct {
	// StageName slots the result into the Verdict (core.AnalyzerNTI or
	// core.AnalyzerPTI); other names only feed the attack decision.
	StageName string
	Fn        func(ctx context.Context, req Request, st *State) (core.Result, error)
}

// Name implements Analyzer.
func (f Func) Name() string { return f.StageName }

// Analyze implements Analyzer.
func (f Func) Analyze(ctx context.Context, req Request, st *State) (core.Result, error) {
	return f.Fn(ctx, req, st)
}
