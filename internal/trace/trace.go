// Package trace provides decision tracing for the hybrid check pipeline:
// per-stage durations (lex, per-input approximate match, fragment cover)
// and the evidence behind each verdict (which input matched where, which
// fragment covered a critical token, which token went uncovered).
//
// The design goal is zero overhead when tracing is off. A disabled (or
// nil) Tracer hands out nil *Spans, and every Span method is nil-safe, so
// the instrumented hot path pays one pointer check per recording site and
// performs no clock reads and no allocations. When a check is sampled the
// span is a single heap allocation plus whatever evidence it accumulates.
//
// Finished spans land in two ring buffers: a "recent" ring holding the
// last N sampled checks regardless of outcome, and a "notable" ring that
// only attack or slow traces enter, so a burst of benign traffic cannot
// evict the evidence an operator is about to look at.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Cache outcome labels recorded by the PTI cache layer.
const (
	CacheQueryHit     = "query-hit"
	CacheStructureHit = "structure-hit"
	CacheMiss         = "miss"
)

// InputMatch is the NTI evidence for one captured input: how long the
// matcher spent on it and, when it matched, where and how closely.
type InputMatch struct {
	// Index is the input's position in the request's input list.
	Index int `json:"index"`
	// Source is the input key ("get:id"); for deduplicated inputs the
	// comma-joined keys of every channel that carried the value.
	Source string `json:"source"`
	// MatchNs is the time spent matching this input against the query.
	MatchNs int64 `json:"matchNs"`
	// Matched reports whether a span under the threshold was found.
	Matched bool `json:"matched"`
	// PrefilterRejected reports that the prefilter (partition filter,
	// trigram screen or window pass) proved no qualifying match could
	// exist, so no matcher ran for this input.
	PrefilterRejected bool `json:"prefilterRejected,omitempty"`
	// Start and End delimit the tainted span of the query when Matched.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Distance is the edit distance of the match when Matched.
	Distance int `json:"distance,omitempty"`
}

// Cover is the PTI evidence for one covered critical token: which trusted
// fragment contained it and where the fragment occurred in the query.
type Cover struct {
	// Token is the covered critical token's text.
	Token string `json:"token"`
	// TokenStart and TokenEnd delimit the token in the query.
	TokenStart int `json:"tokenStart"`
	TokenEnd   int `json:"tokenEnd"`
	// FragmentID identifies the covering fragment in the fragment set.
	FragmentID int `json:"fragmentId"`
	// FragStart and FragEnd delimit the fragment occurrence in the query.
	FragStart int `json:"fragStart"`
	FragEnd   int `json:"fragEnd"`
	// MRU reports whether the MRU fast path found the cover.
	MRU bool `json:"mru,omitempty"`
}

// Uncovered is the PTI evidence for one critical token no trusted
// fragment contained — the reason a PTI attack verdict fires.
type Uncovered struct {
	Token      string `json:"token"`
	TokenStart int    `json:"tokenStart"`
	TokenEnd   int    `json:"tokenEnd"`
}

// Span records one traced check. Exported fields marshal to JSON and
// travel over the daemon wire protocol unchanged, so a remote deployment
// sees the same evidence as an in-process one.
//
// All recording methods are nil-safe no-ops on a nil *Span.
type Span struct {
	// Query is the analyzed SQL text.
	Query string `json:"query"`
	// StartUnixNano timestamps the check (wall clock).
	StartUnixNano int64 `json:"startUnixNano"`
	// TotalNs is the full Check duration; the stage fields below account
	// the parts the pipeline explicitly times.
	TotalNs int64 `json:"totalNs"`
	// LexNs is time spent lexing (zero when a cache hit skipped the lex).
	LexNs int64 `json:"lexNs,omitempty"`
	// PTICoverNs is time spent in PTI fragment-cover analysis (zero on a
	// cache hit).
	PTICoverNs int64 `json:"ptiCoverNs,omitempty"`
	// NTIMatchNs is the summed per-input approximate-match time.
	NTIMatchNs int64 `json:"ntiMatchNs,omitempty"`
	// NTIPrefilterNs is the portion of NTIMatchNs spent in the prefilter
	// (partition filter, trigram bitmap build, per-input trigram counting
	// and window pass).
	NTIPrefilterNs int64 `json:"ntiPrefilterNs,omitempty"`
	// ProfileNs is time spent in the query-skeleton profile stage
	// (skeleton normalization plus the profile lookup).
	ProfileNs int64 `json:"profileNs,omitempty"`

	// Attack is the hybrid verdict; NTIAttack/PTIAttack/ProfileAttack
	// attribute it.
	Attack        bool `json:"attack"`
	NTIAttack     bool `json:"ntiAttack,omitempty"`
	PTIAttack     bool `json:"ptiAttack,omitempty"`
	ProfileAttack bool `json:"profileAttack,omitempty"`
	// Degraded marks a remote check served without a PTI verdict because
	// the daemon was unreachable.
	Degraded bool `json:"degraded,omitempty"`
	// Panic carries the message and stack of an analyzer-stage panic the
	// engine recovered; the verdict was synthesized by the failure mode.
	Panic string `json:"panic,omitempty"`
	// OverBudget names the cost budget this check exceeded; the verdict
	// was synthesized by the failure mode.
	OverBudget string `json:"overBudget,omitempty"`
	// VersionSkew records that this verdict was served by a shard whose
	// snapshot version differs from the fleet's current one (mid-rollout or
	// after a partial rollout failure): the detail names the shard and both
	// versions. Skewed spans always enter the notable ring.
	VersionSkew string `json:"versionSkew,omitempty"`

	// CacheOutcome is the PTI cache verdict: query-hit, structure-hit or
	// miss (empty when PTI is disabled). A remote check a HybridClient
	// answered from its own verdict cache reads client-hit: no daemon saw
	// it, so no daemon span is merged.
	CacheOutcome string `json:"cacheOutcome,omitempty"`

	// Site is the call-site key the profile stage evaluated (empty when
	// the check carried none); Skeleton is the normalized query skeleton
	// it computed; ProfileOutcome is the lookup's classification — "seen",
	// "unseen-skeleton" (the attack signal), "unknown-site" or "learned".
	Site           string `json:"site,omitempty"`
	Skeleton       string `json:"skeleton,omitempty"`
	ProfileOutcome string `json:"profileOutcome,omitempty"`

	// Inputs is the per-input NTI match evidence.
	Inputs []InputMatch `json:"inputs,omitempty"`
	// Covers lists critical tokens with their covering fragments.
	Covers []Cover `json:"covers,omitempty"`
	// UncoveredTokens lists critical tokens no fragment contained.
	UncoveredTokens []Uncovered `json:"uncovered,omitempty"`

	start time.Time
}

// Active reports whether the span is recording; instrumented code guards
// expensive evidence collection behind it.
func (s *Span) Active() bool { return s != nil }

// Lex adds lexing time.
func (s *Span) Lex(d time.Duration) {
	if s == nil {
		return
	}
	s.LexNs += int64(d)
}

// PTICover adds fragment-cover analysis time.
func (s *Span) PTICover(d time.Duration) {
	if s == nil {
		return
	}
	s.PTICoverNs += int64(d)
}

// NTIMatch adds approximate-match time (per-input detail goes through
// AddInput).
func (s *Span) NTIMatch(d time.Duration) {
	if s == nil {
		return
	}
	s.NTIMatchNs += int64(d)
}

// NTIPrefilter adds prefilter time (a sub-portion of the match time
// recorded via AddInput).
func (s *Span) NTIPrefilter(d time.Duration) {
	if s == nil {
		return
	}
	s.NTIPrefilterNs += int64(d)
}

// ProfileTime adds query-skeleton profile stage time.
func (s *Span) ProfileTime(d time.Duration) {
	if s == nil {
		return
	}
	s.ProfileNs += int64(d)
}

// SetProfile records the profile stage's evidence: the call-site key, the
// normalized skeleton and the lookup outcome ("seen", "unseen-skeleton",
// "unknown-site" or "learned").
func (s *Span) SetProfile(site, skeleton, outcome string) {
	if s == nil {
		return
	}
	s.Site = site
	s.Skeleton = skeleton
	s.ProfileOutcome = outcome
}

// SetCacheOutcome records the PTI cache verdict.
func (s *Span) SetCacheOutcome(outcome string) {
	if s == nil {
		return
	}
	s.CacheOutcome = outcome
}

// SetDegraded marks the check as served under transport degradation.
func (s *Span) SetDegraded() {
	if s == nil {
		return
	}
	s.Degraded = true
}

// SetPanic records a recovered analyzer-stage panic: the panic value plus
// the goroutine stack at the recovery point. Panicked spans always enter
// the notable ring.
func (s *Span) SetPanic(detail string) {
	if s == nil {
		return
	}
	s.Panic = detail
}

// SetOverBudget records which cost budget the check exceeded. Over-budget
// spans always enter the notable ring.
func (s *Span) SetOverBudget(budget string) {
	if s == nil {
		return
	}
	s.OverBudget = budget
}

// SetVersionSkew records that a stale shard served this verdict. Skewed
// spans always enter the notable ring.
func (s *Span) SetVersionSkew(detail string) {
	if s == nil {
		return
	}
	s.VersionSkew = detail
}

// AddInput appends one input's match evidence and accumulates its match
// time into NTIMatchNs.
func (s *Span) AddInput(im InputMatch) {
	if s == nil {
		return
	}
	s.Inputs = append(s.Inputs, im)
	s.NTIMatchNs += im.MatchNs
}

// AddCover appends one covered-token evidence record.
func (s *Span) AddCover(c Cover) {
	if s == nil {
		return
	}
	s.Covers = append(s.Covers, c)
}

// AddUncovered appends one uncovered-token evidence record.
func (s *Span) AddUncovered(u Uncovered) {
	if s == nil {
		return
	}
	s.UncoveredTokens = append(s.UncoveredTokens, u)
}

// SetVerdict records the final hybrid decision.
func (s *Span) SetVerdict(ntiAttack, ptiAttack, profileAttack bool) {
	if s == nil {
		return
	}
	s.NTIAttack = ntiAttack
	s.PTIAttack = ptiAttack
	s.ProfileAttack = profileAttack
	s.Attack = ntiAttack || ptiAttack || profileAttack
}

// Merge folds a remote span (the daemon's view of the same check) into s:
// stage durations accumulate and PTI evidence transfers, so the hybrid
// client's trace shows daemon-side lexing, cache outcome and cover
// evidence next to its own NTI timings.
func (s *Span) Merge(remote *Span) {
	if s == nil || remote == nil {
		return
	}
	s.LexNs += remote.LexNs
	s.PTICoverNs += remote.PTICoverNs
	s.ProfileNs += remote.ProfileNs
	if remote.CacheOutcome != "" {
		s.CacheOutcome = remote.CacheOutcome
	}
	if remote.ProfileOutcome != "" {
		s.Site = remote.Site
		s.Skeleton = remote.Skeleton
		s.ProfileOutcome = remote.ProfileOutcome
	}
	s.Covers = append(s.Covers, remote.Covers...)
	s.UncoveredTokens = append(s.UncoveredTokens, remote.UncoveredTokens...)
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery traces one check in N (1 traces every check; 0 or
	// negative disables tracing entirely).
	SampleEvery int
	// RingSize is the capacity of each ring buffer (default 128).
	RingSize int
	// SlowThreshold routes finished traces at or above this duration into
	// the notable ring even when benign. Zero means only attacks are
	// notable.
	SlowThreshold time.Duration
}

// DefaultRingSize is the ring capacity used when Config.RingSize is zero.
const DefaultRingSize = 128

// Tracer samples checks into Spans and retains finished spans in ring
// buffers. A nil *Tracer is valid and permanently disabled.
type Tracer struct {
	sampleEvery uint64
	slow        int64
	tick        atomic.Uint64

	started  atomic.Uint64
	finished atomic.Uint64

	mu      sync.Mutex
	recent  ring
	notable ring
}

// ring is a fixed-capacity overwrite-oldest buffer of finished spans.
// Guarded by the Tracer's mutex.
type ring struct {
	spans []Span
	next  int
	full  bool
}

func (r *ring) push(s Span) {
	if len(r.spans) == 0 {
		return
	}
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the ring's contents oldest-first.
func (r *ring) snapshot() []Span {
	if !r.full {
		return append([]Span(nil), r.spans[:r.next]...)
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// New returns a Tracer for cfg, or nil when cfg disables tracing — the
// nil tracer is the zero-overhead off switch.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		return nil
	}
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		slow:        int64(cfg.SlowThreshold),
		recent:      ring{spans: make([]Span, size)},
		notable:     ring{spans: make([]Span, size)},
	}
}

// Start returns a recording span for query when this check is sampled,
// nil otherwise. Safe on a nil Tracer.
func (t *Tracer) Start(query string) *Span {
	if t == nil {
		return nil
	}
	if t.sampleEvery > 1 && (t.tick.Add(1)-1)%t.sampleEvery != 0 {
		return nil
	}
	t.started.Add(1)
	now := time.Now()
	return &Span{Query: query, StartUnixNano: now.UnixNano(), start: now}
}

// StartAlways returns a recording span regardless of the sampling stride
// (nil only on a nil Tracer). The engine uses it to capture exceptional
// events — recovered panics, blown budgets — on checks the sampler
// skipped, so the evidence always reaches the notable ring.
func (t *Tracer) StartAlways(query string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	now := time.Now()
	return &Span{Query: query, StartUnixNano: now.UnixNano(), start: now}
}

// Finish completes the span: stamps the total duration and retains the
// span in the recent ring, plus the notable ring when it is an attack or
// slower than the configured threshold. Safe on nil receivers and spans.
func (t *Tracer) Finish(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.TotalNs = int64(time.Since(s.start))
	t.finished.Add(1)
	notable := s.Attack || s.Degraded || s.Panic != "" || s.OverBudget != "" ||
		s.VersionSkew != "" || (t.slow > 0 && s.TotalNs >= t.slow)
	t.mu.Lock()
	t.recent.push(*s)
	if notable {
		t.notable.push(*s)
	}
	t.mu.Unlock()
}

// Dump is the queryable view of a tracer's rings, oldest-first, plus the
// sampling counters. It is the payload of the daemon "traces" verb and
// the obs server's /traces endpoint.
type Dump struct {
	// Started and Finished count sampled spans over the tracer's life.
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	// Recent holds the last sampled checks regardless of outcome.
	Recent []Span `json:"recent"`
	// Notable holds the last attack, degraded or slow checks.
	Notable []Span `json:"notable"`
}

// Dump snapshots the rings. Safe on a nil Tracer (empty dump).
func (t *Tracer) Dump() Dump {
	if t == nil {
		return Dump{Recent: []Span{}, Notable: []Span{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Dump{
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Recent:   t.recent.snapshot(),
		Notable:  t.notable.snapshot(),
	}
}
