// Package engine is the hybrid decision procedure behind every Joza
// interposition point. The paper's Figure 5 architecture has one analysis
// pipeline reached from many front doors — the in-process Guard, the
// daemon-backed remote hybrid, the database proxy, the web-framework query
// wrapper and the OS-command guard — and this package is that single
// pipeline: a context-aware Check over an ordered list of pluggable
// analyzers, with one post-verdict recording path for metrics, traces and
// the audit log.
//
// # Snapshots
//
// An Engine runs every check against an immutable Snapshot: the analyzer
// stages plus the handles behind them (fragment set, matchers, caches).
// Snapshots are swapped atomically by Swap — the preprocessing component
// uses this when the application's source tree changes — so reloads never
// take a lock on the hot path: a check loads the snapshot pointer once and
// keeps it for the whole analysis, while in-flight checks finish on the
// snapshot they started with.
//
// # Context
//
// Check accepts a context.Context and threads it into every stage.
// Analyzers are expected to poll it at natural checkpoints (the NTI
// matcher's banded DP loop, the PTI cover loop, transport round trips) and
// return its error promptly, so per-request deadlines and cancellation
// work end to end. Callers without deadline requirements pass
// context.Background(); on that path the polling is a no-op nil check and
// the steady-state cache-hit pipeline performs zero heap allocations.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"joza/internal/audit"
	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// Request is one check: the statement under analysis plus the originating
// request's captured raw inputs.
type Request struct {
	// Query is the SQL statement (or, for the oscmd pipeline, the shell
	// command line) about to execute.
	Query string
	// Inputs are the raw application inputs captured at request entry.
	Inputs []nti.Input
	// Site identifies the database call site issuing the query (e.g.
	// "plugin:gd-star-rating" or a caller-chosen key). Consumed by the
	// query-skeleton profile stage; empty means the call site is unknown
	// and that stage skips the check.
	Site string
	// Dialect is the SQL dialect the query will execute under. The zero
	// value is sqltoken.MySQL. It must match the snapshot's dialect: the
	// engine refuses to analyze a request under analyzers built for a
	// different dialect (the token boundaries would be wrong), resolving
	// the mismatch through the failure mode instead of running any stage.
	Dialect sqltoken.Dialect
}

// OrDialect returns r with a zero Dialect replaced by d. Front doors
// apply their own dialect this way, so a caller that names none is
// analyzed under the door's dialect while a caller naming a different one
// meets the dialect backstop in Check.
func (r Request) OrDialect(d sqltoken.Dialect) Request {
	if r.Dialect == 0 {
		r.Dialect = d
	}
	return r
}

// State is the per-check scratch shared by the stages of one pipeline run:
// the request and the verdict being built, the lazily-lexed token stream,
// the trace span, and flags the post-verdict recording path consumes. A
// State is owned by exactly one Check call; stages must not retain it.
type State struct {
	// req is the request under analysis and v the verdict the stages
	// write into. Both live here rather than on Check's stack: a pointer
	// handed to an interface method escapes, so a verdict on the stack
	// would move to the heap. scratch is the result slot of a stage whose
	// name has no place on the verdict.
	req     Request
	v       core.Verdict
	scratch core.Result

	span *trace.Span

	// tokens is the shared SQL token stream; nil until a stage lexes.
	tokens []sqltoken.Token

	// tokBuf is the storage the stages lex the request into; its length
	// is the number of tokens last written, which reset zeroes. It
	// survives reset, so pooled States lex without allocating. Stages lex
	// into it only while tokens is nil, so a published stream is never
	// overwritten, and only a lex is ever published from it.
	tokBuf []sqltoken.Token

	// aux carries analyzer-family-specific shared state, such as the shell
	// token stream of the oscmd pipeline.
	aux any

	// degraded marks a check served without a remote analyzer's verdict
	// because its backend was unreachable.
	degraded bool

	// skeleton and profileOutcome are the profile stage's evidence, copied
	// onto the verdict.
	skeleton, profileOutcome string

	// skeletonBuf is the profile stage's build buffer. It survives reset,
	// so pooled States build skeletons without allocating.
	skeletonBuf []byte

	// memo is the skeleton memo of the PTI cache entry this check hit;
	// zero on a miss or without a PTI stage.
	// reset clears it, so a pooled State pins no cache entry.
	memo pti.SkeletonMemo
}

// Span returns the check's trace span (nil when the check is not sampled;
// all Span recording methods are nil-safe).
func (st *State) Span() *trace.Span { return st.span }

// Tokens returns the shared token stream. Nil means no stage has lexed
// yet: the caller may lex lazily and should then PublishTokens for later
// stages.
func (st *State) Tokens() []sqltoken.Token { return st.tokens }

// PublishTokens shares a lexed token stream with later stages. Publishing
// nil is a no-op, so stages can pass through their possibly-empty lex
// result unconditionally.
func (st *State) PublishTokens(toks []sqltoken.Token) {
	if toks == nil {
		return
	}
	st.tokens = toks
}

// Aux returns the pipeline-family scratch value set by SetAux.
func (st *State) Aux() any { return st.aux }

// SetAux stores a pipeline-family scratch value (e.g. a shell token
// stream) shared between stages of one check.
func (st *State) SetAux(v any) { st.aux = v }

// MarkDegraded records that a stage served its result without reaching its
// backend; the engine counts the check as degraded and flags the span.
func (st *State) MarkDegraded() {
	st.degraded = true
	st.span.SetDegraded()
}

// SetProfile records the profile stage's evidence for the verdict and
// the span: the call site, the query's skeleton and the lookup outcome.
func (st *State) SetProfile(site, skeleton, outcome string) {
	st.skeleton, st.profileOutcome = skeleton, outcome
	st.span.SetProfile(site, skeleton, outcome)
}

// maxPooledSkeletonBuf bounds the skeleton buffer a pooled State keeps,
// so one huge query does not pin its buffer in the pool; maxPooledTokens
// bounds its token storage to the same number of bytes (about 1.3k
// tokens).
const (
	maxPooledSkeletonBuf = 64 << 10
	maxPooledTokens      = maxPooledSkeletonBuf / int(unsafe.Sizeof(sqltoken.Token{}))
)

// reset clears the State for pool reuse, keeping a modest skeleton buffer
// and token storage. The tokens written are zeroed, so a pooled State
// pins no query text; only that prefix is, so the cost follows the query
// just lexed and not the storage's capacity.
func (st *State) reset() {
	buf := st.skeletonBuf[:0]
	if cap(buf) > maxPooledSkeletonBuf {
		buf = nil
	}
	toks := st.tokBuf
	if cap(toks) > maxPooledTokens {
		toks = nil
	}
	clear(toks)
	*st = State{skeletonBuf: buf, tokBuf: toks[:0]}
}

// statePool recycles per-check State values so the steady-state pipeline
// allocates nothing: passing a *State through the Analyzer interface makes
// it escape, and without the pool every Check would heap-allocate one.
var statePool = sync.Pool{New: func() any { return new(State) }}

// Analyzer is one pluggable stage of the pipeline.
//
// A stage analyzes the request, may consume and publish shared state (the
// token stream, the trace span), and writes its per-analyzer Result into
// res, which is its slot on the verdict being built. An error aborts the
// pipeline: no verdict is recorded and Check returns the error — stages
// surface ctx.Err() when canceled, and transport-backed stages surface
// backend failures their degradation policy does not absorb. Whatever a
// stage wrote before failing is discarded: a contained failure replaces
// the slot with the failure mode's result.
type Analyzer interface {
	// Name slots the stage's Result into the Verdict: core.AnalyzerNTI,
	// core.AnalyzerPTI or core.AnalyzerProfile. Unknown names contribute
	// to the hybrid attack decision but occupy no Verdict slot.
	Name() string
	// Analyze examines *req and fills *res, which holds
	// core.Result{Analyzer: Name()} when the stage starts. ctx, req, st and
	// res are never nil; the stage must not modify *req or retain any of
	// the pointers.
	Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error
}

// Snapshot is the immutable analysis state one check runs over: the stage
// list plus the typed handles behind the stages, kept for stats and
// introspection. Build a Snapshot, hand it to New or Swap, and never
// mutate it afterwards.
type Snapshot struct {
	// Analyzers are the pipeline stages, run in order.
	Analyzers []Analyzer

	// Dialect is the SQL dialect every analyzer in this snapshot lexes
	// under. The zero value is sqltoken.MySQL. Requests carrying a
	// different dialect, and every request to a snapshot whose NTI or PTI
	// handle was built for a different one, are refused through the
	// failure mode rather than analyzed with the wrong token boundaries.
	Dialect sqltoken.Dialect

	// Set is the trusted fragment set behind the PTI stage (may be nil for
	// pipelines without fragment-based analysis).
	Set *fragments.Set
	// NTI and PTI expose the concrete analyzers for stats endpoints; nil
	// when the snapshot has no such stage.
	NTI *nti.Analyzer
	PTI *pti.Cached
	// Profiles is the per-call-site query-skeleton store behind a
	// ProfileStage; nil without one. Exposed for stats endpoints.
	Profiles *profile.Store

	// Version is the content-derived version of this snapshot (see
	// ComputeVersion); empty for unversioned snapshots. Stamped on every
	// verdict the snapshot produces so each check is attributable to
	// exactly one policy generation even across live reloads.
	Version string
}

// dialectMismatch reports why a request in dialect d cannot be analyzed
// under the snapshot, or "" when it can. Analyzing under analyzers built
// for another dialect would draw the string/code boundary wrong — exactly
// the syntax-confusion hazard dialects exist to close — so the mismatch
// is refused like any other unanalyzable request. The typed analyzer
// handles are held to the snapshot's dialect too: each analyzer lexes the
// query itself, so one built for a different dialect would silently
// change its verdicts.
func (s *Snapshot) dialectMismatch(d sqltoken.Dialect) string {
	switch {
	case d != s.Dialect:
		return fmt.Sprintf("request dialect %s does not match analyzer dialect %s", d, s.Dialect)
	case s.NTI != nil && s.NTI.Dialect() != s.Dialect:
		return fmt.Sprintf("NTI analyzer dialect %s does not match snapshot dialect %s", s.NTI.Dialect(), s.Dialect)
	case s.PTI != nil && s.PTI.Dialect() != s.Dialect:
		return fmt.Sprintf("PTI analyzer dialect %s does not match snapshot dialect %s", s.PTI.Dialect(), s.Dialect)
	}
	return ""
}

// cacheShards converts one PTI cache's shard counters (nil when that
// cache is off).
func cacheShards(shards []pti.ShardStat) []metrics.CacheShard {
	if len(shards) == 0 {
		return nil
	}
	out := make([]metrics.CacheShard, len(shards))
	for i, sh := range shards {
		out[i] = metrics.CacheShard{Hits: sh.Hits, Misses: sh.Misses, Entries: sh.Entries, Rejected: sh.Rejected}
	}
	return out
}

// FillMetrics fills the snapshot-derived fields of m: the version, the
// PTI cache totals and both caches' shards, the NTI matcher counters, and
// the size of the profile store (or of the learning recorder). Every front
// door's metrics call shares it.
func (s *Snapshot) FillMetrics(m *metrics.Snapshot) {
	m.SnapshotVersion = s.Version
	if s.PTI != nil {
		st := s.PTI.Stats()
		m.CacheQueryHits = st.QueryHits
		m.CacheStructureHits = st.StructureHits
		m.CacheMisses = st.Misses
		query, structure := s.PTI.ShardStats()
		m.CacheShards, m.CacheStructureShards = cacheShards(query), cacheShards(structure)
	}
	if s.NTI != nil {
		st := s.NTI.Stats()
		m.NTIMatcherCalls = st.MatcherCalls
		m.NTIMatcherEarlyExits = st.EarlyExits
		m.NTIPrefilterChecks = st.PrefilterChecks
		m.NTIPrefilterRejects = st.PrefilterRejects
	}
	if s.Profiles != nil {
		m.ProfileSites = uint64(s.Profiles.Sites())
		m.ProfileSkeletons = uint64(s.Profiles.Skeletons())
		return
	}
	for _, a := range s.Analyzers {
		if ps, ok := a.(ProfileStage); ok && ps.Recorder != nil {
			sites, skeletons := ps.Recorder.Len()
			m.ProfileSites, m.ProfileSkeletons = uint64(sites), uint64(skeletons)
		}
	}
}

// FailureMode selects how the engine resolves a check whose analysis
// could not complete safely: a recovered analyzer-stage panic or a blown
// cost budget. Context cancellation is not a failure — it propagates to
// the caller with no verdict, as before.
type FailureMode int

const (
	// FailClosed (the default) treats the unanalyzable query as an
	// attack: nothing executes unverified, at the cost of availability
	// for the affected queries.
	FailClosed FailureMode = iota
	// FailOpen serves the verdict of the stages that completed, treating
	// the failed stage as if it found nothing. The request path stays up
	// at the cost of that stage's coverage.
	FailOpen
)

// String names the mode for logs and flags.
func (m FailureMode) String() string {
	if m == FailOpen {
		return "fail-open"
	}
	return "fail-closed"
}

// Limits bounds the work one check may demand before any stage runs.
// Zero fields are unlimited.
type Limits struct {
	// MaxQueryBytes fails checks whose query exceeds this size.
	MaxQueryBytes int
	// MaxInputBytes fails checks whose captured input values sum to more
	// than this many bytes.
	MaxInputBytes int
}

// stagePanic carries a recovered analyzer panic out of runStage so Check
// can convert it into a failure-mode verdict.
type stagePanic struct {
	stage string
	value any
	stack []byte
}

// Error implements the error interface.
func (p *stagePanic) Error() string {
	return fmt.Sprintf("analyzer stage %s panicked: %v", p.stage, p.value)
}

// Engine runs the hybrid pipeline. The long-lived parts — metrics
// collector, tracer, audit log, policy — belong to the Engine and survive
// snapshot swaps; the analysis state belongs to the Snapshot.
type Engine struct {
	snap      atomic.Pointer[Snapshot]
	collector *metrics.Collector
	tracer    *trace.Tracer
	auditLog  *audit.Logger
	policy    core.Policy
	failMode  FailureMode
	limits    Limits
}

// Option configures an Engine.
type Option func(*Engine)

// WithCollector records verdicts into c (shared, for example, across the
// rebuilds of a Manager). By default the Engine creates its own.
func WithCollector(c *metrics.Collector) Option {
	return func(e *Engine) { e.collector = c }
}

// WithTracer samples checks into t's rings. A nil tracer (the default)
// disables tracing at zero cost.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithAuditLogger writes one audit record per blocked query to l.
func WithAuditLogger(l *audit.Logger) Option {
	return func(e *Engine) { e.auditLog = l }
}

// WithPolicy sets the recovery policy stamped on audit records (default
// core.PolicyTerminate).
func WithPolicy(p core.Policy) Option {
	return func(e *Engine) { e.policy = p }
}

// WithFailureMode sets how checks whose analysis fails — a stage panic or
// a blown cost budget — resolve (default FailClosed).
func WithFailureMode(m FailureMode) Option {
	return func(e *Engine) { e.failMode = m }
}

// WithLimits bounds per-check work before any stage runs; over-limit
// checks resolve through the failure mode and count as over-budget.
func WithLimits(l Limits) Option {
	return func(e *Engine) { e.limits = l }
}

// New builds an Engine over the initial snapshot.
func New(snap *Snapshot, opts ...Option) *Engine {
	e := &Engine{policy: core.PolicyTerminate}
	e.snap.Store(snap)
	for _, o := range opts {
		o(e)
	}
	if e.collector == nil {
		e.collector = metrics.NewCollector()
	}
	return e
}

// Snapshot returns the current snapshot. In-flight checks may still be
// running over an older one.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Swap atomically replaces the snapshot. The hot path takes no lock:
// checks that already loaded the old snapshot finish on it, and the next
// Check picks up the new one.
func (e *Engine) Swap(snap *Snapshot) { e.snap.Store(snap) }

// Collector returns the engine's metrics collector.
func (e *Engine) Collector() *metrics.Collector { return e.collector }

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Policy returns the engine's recovery policy.
func (e *Engine) Policy() core.Policy { return e.policy }

// FailureMode returns the engine's analysis-failure mode.
func (e *Engine) FailureMode() FailureMode { return e.failMode }

// Check runs the pipeline for one request and returns the hybrid verdict:
// the request is an attack iff any stage flags it. ctx threads into every
// stage; a canceled or expired context surfaces as a context error with no
// verdict recorded. Callers without deadlines pass context.Background().
//
// Analysis failures are contained rather than propagated: a stage that
// panics or exceeds a cost budget (Limits, or an analyzer's own budget
// surfacing core.ErrOverBudget) resolves through the configured
// FailureMode — fail-closed synthesizes an attack verdict for that stage,
// fail-open serves the remaining stages' verdict — with the event counted
// in the collector and captured in a notable trace span.
func (e *Engine) Check(ctx context.Context, req Request) (v core.Verdict, err error) {
	err = e.CheckInto(ctx, req, &v)
	return v, err
}

// CheckInto is Check writing the verdict into *v, which it leaves alone
// when it returns an error. The verdict is built in the pooled State and
// copied out once, into *v: a front door returning a Verdict passes its
// own result, where Check's result would be copied once more.
func (e *Engine) CheckInto(ctx context.Context, req Request, v *core.Verdict) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st := statePool.Get().(*State)
	st.req = req
	err := e.check(ctx, st)
	if err == nil {
		*v = st.v
	}
	st.reset()
	statePool.Put(st)
	return err
}

// check runs the pipeline over st.req and builds the verdict in st.v. An
// error means no verdict: it is a context error or a stage failure the
// failure mode does not contain, and nothing was recorded.
func (e *Engine) check(ctx context.Context, st *State) error {
	req, v := &st.req, &st.v
	snap := e.snap.Load()
	st.span = e.tracer.Start(req.Query)
	var start time.Time
	sampled := e.collector.SampleLatency()
	if sampled {
		start = time.Now()
	}
	// Pre-fill the per-analyzer slots so pipelines with a disabled or
	// absent stage still report a labeled empty Result, exactly as the
	// hand-rolled front doors did.
	v.Query = req.Query
	v.NTI.Analyzer = core.AnalyzerNTI
	v.PTI.Analyzer = core.AnalyzerPTI
	v.Version = snap.Version
	detail := e.overLimits(req)
	if detail == "" {
		detail = snap.dialectMismatch(req.Dialect)
	}
	if detail != "" {
		// The request blew a pre-analysis limit: no stage runs at all.
		e.collector.RecordOverBudget()
		e.ensureSpan(st)
		st.span.SetOverBudget(detail)
		if e.failMode == FailClosed {
			v.Attack = true
			v.PTI.Attack = true
			v.PTI.Reasons = []core.Reason{{Detail: detail + " (fail-closed)"}}
		}
		v.Failed = true
		e.record(st, sampled, start)
		return nil
	}
	for _, a := range snap.Analyzers {
		name := a.Name()
		res := st.slot(name)
		*res = core.Result{Analyzer: name}
		if err := e.runStage(ctx, a, st, res); err != nil {
			var sp *stagePanic
			switch {
			case errors.As(err, &sp):
				e.collector.RecordPanic()
				e.ensureSpan(st)
				st.span.SetPanic(fmt.Sprintf("stage %s: %v\n%s", sp.stage, sp.value, sp.stack))
				*res = e.failureResult(name, fmt.Sprintf("analyzer %s panicked (%s): %v", sp.stage, e.failMode, sp.value))
				v.Failed = true
			case errors.Is(err, core.ErrOverBudget) && ctx.Err() == nil:
				e.collector.RecordOverBudget()
				e.ensureSpan(st)
				st.span.SetOverBudget(err.Error())
				*res = e.failureResult(name, fmt.Sprintf("analysis over budget (%s): %v", e.failMode, err))
				v.Failed = true
			default:
				// Context errors and transport failures the stage's own
				// degradation policy did not absorb: no verdict.
				return err
			}
		}
		v.Attack = v.Attack || res.Attack
	}
	v.Skeleton, v.ProfileOutcome = st.skeleton, st.profileOutcome
	e.record(st, sampled, start)
	return nil
}

// slot returns where the stage named name writes its Result: its slot on
// the verdict, or the scratch result for a name the verdict has no slot
// for.
func (st *State) slot(name string) *core.Result {
	switch name {
	case core.AnalyzerNTI:
		return &st.v.NTI
	case core.AnalyzerPTI:
		return &st.v.PTI
	case core.AnalyzerProfile:
		return &st.v.Profile
	}
	return &st.scratch
}

// runStage executes one analyzer with panic isolation: a panicking stage
// surfaces as a *stagePanic error instead of unwinding the server.
func (e *Engine) runStage(ctx context.Context, a Analyzer, st *State, res *core.Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &stagePanic{stage: a.Name(), value: r, stack: debug.Stack()}
		}
	}()
	return a.Analyze(ctx, &st.req, st, res)
}

// overLimits reports why req exceeds the engine's pre-analysis limits, or
// "" when it is within them. With zero Limits this is two compares.
func (e *Engine) overLimits(req *Request) string {
	if e.limits.MaxQueryBytes > 0 && len(req.Query) > e.limits.MaxQueryBytes {
		return fmt.Sprintf("over budget: query %d bytes exceeds limit %d", len(req.Query), e.limits.MaxQueryBytes)
	}
	if e.limits.MaxInputBytes > 0 {
		total := 0
		for _, in := range req.Inputs {
			total += len(in.Value)
		}
		if total > e.limits.MaxInputBytes {
			return fmt.Sprintf("over budget: inputs %d bytes exceed limit %d", total, e.limits.MaxInputBytes)
		}
	}
	return ""
}

// ensureSpan forces a trace span onto a check the sampler skipped, so
// exceptional events are always captured (no-op when tracing is off).
func (e *Engine) ensureSpan(st *State) {
	if st.span == nil {
		st.span = e.tracer.StartAlways(st.req.Query)
	}
}

// failureResult synthesizes the failed stage's result per the failure
// mode: fail-closed flags an attack carrying detail as the reason,
// fail-open reports a clean empty result.
func (e *Engine) failureResult(name, detail string) core.Result {
	r := core.Result{Analyzer: name}
	if e.failMode == FailClosed {
		r.Attack = true
		r.Reasons = []core.Reason{{Detail: detail}}
	}
	return r
}

// record is the single post-verdict recording path shared by every front
// door: check counters (and the degraded counter), latency sampling, span
// completion with per-stage histograms (the finished span rides the
// verdict), and the audit log for attacks.
func (e *Engine) record(st *State, sampled bool, start time.Time) {
	v := &st.v
	if st.degraded {
		e.collector.RecordDegraded()
	}
	elapsed := time.Duration(-1)
	if sampled {
		elapsed = time.Since(start)
	}
	e.collector.RecordCheck(v.NTI.Attack, v.PTI.Attack, v.Profile.Attack, elapsed)
	if span := st.span; span != nil {
		span.SetVerdict(v.NTI.Attack, v.PTI.Attack, v.Profile.Attack)
		e.tracer.Finish(span)
		v.Trace = span
		// Stage histograms are fed only from traced checks so the untraced
		// hot path never reads the clock per stage.
		e.collector.ObserveStageDurations(span.LexNs, span.PTICoverNs, span.NTIMatchNs, span.NTIPrefilterNs, span.ProfileNs)
	}
	if v.Attack && e.auditLog != nil {
		e.auditLog.Log(v, e.policy, st.req.Inputs)
	}
}

// Authorize runs Check and converts an attack verdict into the
// *core.AttackError every front door returns to its callers.
func (e *Engine) Authorize(ctx context.Context, req Request) error {
	v, err := e.Check(ctx, req)
	if err != nil {
		return err
	}
	if !v.Attack {
		return nil
	}
	return &core.AttackError{Verdict: v, Policy: e.policy}
}
