package daemon

import (
	"context"
	"fmt"
	"io"

	"joza/internal/audit"
	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/guardrail"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// DegradeMode selects what a HybridClient does with a check when the PTI
// transport is unavailable (daemon restart, network fault, exhausted
// reconnection attempts).
type DegradeMode int

const (
	// DegradeError propagates the transport error to the caller, who
	// decides (the legacy behaviour and the default).
	DegradeError DegradeMode = iota
	// DegradeFailClosed treats daemon outage as an attack: no query runs
	// unverified, at the cost of availability during the outage.
	DegradeFailClosed
	// DegradeFailOpen skips PTI and serves the NTI-only verdict: the
	// request path stays up and the hybrid's other half still screens
	// every input, at the cost of PTI coverage during the outage.
	DegradeFailOpen
)

// String names the mode for logs and flags.
func (m DegradeMode) String() string {
	switch m {
	case DegradeFailClosed:
		return "fail-closed"
	case DegradeFailOpen:
		return "fail-open"
	default:
		return "error"
	}
}

// HybridClient composes the deployed pieces as Figure 5 shows: queries go
// to the PTI daemon first, then to the in-application NTI analysis, and
// the query is safe iff both agree. Unlike the paper's daemon, this one
// sends no token stream back: NTI lexes the query itself, and only when an
// input matches it, which is far cheaper than shipping every query's
// tokens over the wire. It is a thin front door over the shared
// internal/engine pipeline — a remote PTI stage (transport plus
// degradation policy) followed by the standard NTI stage — so metrics,
// tracing and audit recording are the engine's single post-verdict path,
// the same operator surface the in-process Guard provides.
type HybridClient struct {
	transport Transport
	eng       *engine.Engine
	policy    core.Policy
	tracer    *trace.Tracer

	// construction-time configuration consumed by NewHybridClient.
	nti            *nti.Analyzer
	degrade        DegradeMode
	collector      *metrics.Collector
	audit          *audit.Logger
	strictProfiles bool
	dialect        sqltoken.Dialect
}

// HybridOption configures a HybridClient.
type HybridOption func(*HybridClient)

// WithDegradeMode sets the degradation policy applied when the transport
// reports an error (default DegradeError).
func WithDegradeMode(m DegradeMode) HybridOption {
	return func(h *HybridClient) { h.degrade = m }
}

// WithCollector records verdicts into c — shared, for example, across
// several clients of one daemon. By default each HybridClient gets its
// own collector, readable via Metrics.
func WithCollector(c *metrics.Collector) HybridOption {
	return func(h *HybridClient) { h.collector = c }
}

// WithAuditLog writes one JSON line per blocked query to w, the same
// record shape the in-process Guard writes.
func WithAuditLog(w io.Writer) HybridOption {
	return func(h *HybridClient) { h.audit = audit.NewLogger(w) }
}

// WithAuditLogger uses a caller-built audit logger — typically
// audit.NewAsyncLogger, so a slow sink never stalls checks. The client's
// Close flushes and closes it.
func WithAuditLogger(l *audit.Logger) HybridOption {
	return func(h *HybridClient) { h.audit = l }
}

// WithPolicy overrides the recovery policy passed to NewHybridClient.
func WithPolicy(p core.Policy) HybridOption {
	return func(h *HybridClient) { h.policy = p }
}

// WithoutNTI disables the application-side NTI component (PTI-only
// deployments), overriding the analyzer passed to NewHybridClient.
func WithoutNTI() HybridOption {
	return func(h *HybridClient) { h.nti = nil }
}

// WithStrictProfiles escalates a daemon profile verdict of "site-unknown"
// — a call site with no training profile at all — to an attack. Off by
// default: a training coverage gap degrades to "no opinion", not an
// outage.
func WithStrictProfiles() HybridOption {
	return func(h *HybridClient) { h.strictProfiles = true }
}

// WithDialect sets the SQL dialect the hybrid's checks run under (default
// MySQL). It stamps every request that names no dialect, so the
// pipeline's dialect backstop holds, and should match the transport's
// configured dialect (Client.SetDialect, PoolConfig.Dialect) and the
// daemon's analyzer — a disagreement surfaces as a per-check daemon
// refusal, resolved by the degradation policy. The NTI analyzer passed to NewHybridClient must be
// built with nti.WithDialect to match: it lexes queries itself, so every
// check of a client whose NTI dialect differs is refused through the
// engine's failure mode rather than analyzed with the wrong token
// boundaries.
func WithDialect(d sqltoken.Dialect) HybridOption {
	return func(h *HybridClient) { h.dialect = d }
}

// WithTracing samples checks into trace spans per cfg. When the daemon
// also traces, its span rides back on the analyze reply and is merged, so
// one trace shows client-side NTI timing next to daemon-side lexing, cache
// outcome and cover evidence. Traced checks feed the collector's
// per-stage histograms.
func WithTracing(cfg trace.Config) HybridOption {
	return func(h *HybridClient) { h.tracer = trace.New(cfg) }
}

// NewHybridClient builds the application-side hybrid over a transport.
// ntiAnalyzer may be nil to disable NTI (PTI-only deployments).
func NewHybridClient(transport Transport, ntiAnalyzer *nti.Analyzer, policy core.Policy, opts ...HybridOption) *HybridClient {
	h := &HybridClient{transport: transport, nti: ntiAnalyzer, policy: policy}
	for _, o := range opts {
		o(h)
	}
	snap := &engine.Snapshot{NTI: h.nti, Dialect: h.dialect}
	snap.Analyzers = append(snap.Analyzers, remotePTIStage{transport: transport, degrade: h.degrade})
	// The profile stage converts the verdict the daemon attached to the
	// analyze reply; it costs nothing when no reply carries one (no site
	// sent, or a daemon without profiles).
	snap.Analyzers = append(snap.Analyzers, remoteProfileStage{strict: h.strictProfiles})
	if h.nti != nil {
		snap.Analyzers = append(snap.Analyzers, engine.NTIStage{Analyzer: h.nti})
	}
	engOpts := []engine.Option{engine.WithPolicy(h.policy)}
	if h.degrade == DegradeFailOpen {
		// One coherent story per deployment: a client that serves NTI-only
		// verdicts through daemon outages also fails open on a contained
		// panic or blown budget. The other modes keep the engine's
		// fail-closed default.
		engOpts = append(engOpts, engine.WithFailureMode(engine.FailOpen))
	}
	if h.collector != nil {
		engOpts = append(engOpts, engine.WithCollector(h.collector))
	}
	if h.audit != nil {
		engOpts = append(engOpts, engine.WithAuditLogger(h.audit))
	}
	if h.tracer != nil {
		engOpts = append(engOpts, engine.WithTracer(h.tracer))
	}
	h.eng = engine.New(snap, engOpts...)
	return h
}

// remotePTIStage is the engine stage for daemon-backed PTI: one transport
// round trip and the degradation policy applied to transport failures. It
// publishes no token stream: the NTI stage lexes under its own dialect,
// and only when an input matches the query.
type remotePTIStage struct {
	transport Transport
	degrade   DegradeMode
}

// Name implements engine.Analyzer.
func (s remotePTIStage) Name() string { return core.AnalyzerPTI }

// Analyze implements engine.Analyzer.
func (s remotePTIStage) Analyze(ctx context.Context, req *engine.Request, st *engine.State, res *core.Result) error {
	reply, err := s.transport.AnalyzeSiteContext(ctx, req.Site, req.Query)
	if err == nil {
		// Fold the daemon's view of this check into our span: its lex and
		// cover timings, cache outcome and cover evidence. The raw reply
		// is stashed for the profile stage, which converts the daemon's
		// profile verdict without a second round trip.
		st.Span().Merge(reply.Trace)
		st.SetAux(reply)
		*res = reply.Result()
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller gave up; that is a cancellation, not a daemon
		// outage, so the degradation policy does not apply.
		return cerr
	}
	switch s.degrade {
	case DegradeFailOpen:
		st.MarkDegraded()
		return nil
	case DegradeFailClosed:
		st.MarkDegraded()
		res.Attack = true
		res.Reasons = []core.Reason{{
			Detail: fmt.Sprintf("PTI daemon unavailable (fail-closed): %v", err),
		}}
		return nil
	default:
		return fmt.Errorf("pti analysis: %w", err)
	}
}

// remoteProfileStage is the client half of the daemon's query-skeleton
// profile stage: it reads the analyze reply the PTI stage stashed and
// converts its profile verdict into the third analyzer Result. When no
// reply carries a profile verdict — no site on the request, a degraded
// check, or a daemon without profiles — it reports a labeled empty result.
type remoteProfileStage struct {
	// strict escalates "site-unknown" (no training profile for the call
	// site) to an attack.
	strict bool
}

// Name implements engine.Analyzer.
func (s remoteProfileStage) Name() string { return core.AnalyzerProfile }

// Analyze implements engine.Analyzer.
func (s remoteProfileStage) Analyze(ctx context.Context, req *engine.Request, st *engine.State, res *core.Result) error {
	reply, ok := st.Aux().(*AnalysisReply)
	if !ok || reply == nil || reply.Profile == nil {
		return nil
	}
	p := reply.Profile
	st.SetProfile(p.Site, p.Skeleton, p.Outcome)
	switch {
	case p.Attack && p.Outcome == "unseen":
		// The daemon's detail is this reason rendered; rebuilding it from
		// the reply's own evidence keeps the verdict equal to the
		// in-process one.
		res.Attack = true
		res.Reasons = []core.Reason{{Kind: core.ReasonUnseen, Site: p.Site, Skeleton: p.Skeleton}}
	case p.Attack:
		res.Attack = true
		detail := p.Detail
		if detail == "" {
			detail = fmt.Sprintf("query skeleton never seen from call site %q during training", p.Site)
		}
		res.Reasons = []core.Reason{{Detail: detail}}
	case s.strict && p.Outcome == "site-unknown":
		res.Attack = true
		res.Reasons = []core.Reason{{Kind: core.ReasonSiteUnknown, Site: p.Site}}
	}
	return nil
}

// Check returns the hybrid verdict for req, bounded by ctx: the deadline
// rides to the daemon in the wire request, cancellation aborts a blocked
// round trip and the NTI matcher mid-analysis, and ctx's error comes back
// with no verdict recorded. req.Site rides to the daemon too, whose
// query-skeleton profile verdict becomes the third analyzer vote. A zero
// req.Dialect means the client's own dialect; any other the client was
// not built for is refused through the engine's failure mode.
//
// When the transport fails (and ctx is still live), the configured
// DegradeMode decides: propagate the error, fail closed (synthesize an
// attack verdict), or fail open (serve the NTI-only verdict). Degraded
// checks are counted in the collector's DegradedChecks.
func (h *HybridClient) Check(ctx context.Context, req engine.Request) (v core.Verdict, err error) {
	err = h.eng.CheckInto(ctx, req.OrDialect(h.dialect), &v)
	return v, err
}

// Authorize returns nil for a safe req, an *core.AttackError for an
// attack, or the error Check would return.
func (h *HybridClient) Authorize(ctx context.Context, req engine.Request) error {
	return h.eng.Authorize(ctx, req.OrDialect(h.dialect))
}

// CheckContextAt is Check with the request spelled out positionally. It
// calls the engine itself: each wrapper returning a Verdict would copy it
// once more.
func (h *HybridClient) CheckContextAt(ctx context.Context, site, query string, inputs []nti.Input) (v core.Verdict, err error) {
	err = h.eng.CheckInto(ctx, engine.Request{Site: site, Query: query, Inputs: inputs, Dialect: h.dialect}, &v)
	return v, err
}

// Metrics returns a snapshot of the client's counters: checks, attacks
// per analyzer, degraded checks, containment events and latency quantiles
// — the operator view Guard.Metrics provides, for remote deployments.
// When the transport carries a circuit breaker (a Pool with
// BreakerThreshold set), its state and counters ride along. PTI cache
// fields stay zero here; the daemon's "stats" verb reports those.
func (h *HybridClient) Metrics() metrics.Snapshot {
	snap := h.eng.Collector().Snapshot()
	if bp, ok := h.transport.(interface{ BreakerStats() guardrail.BreakerStats }); ok {
		if st := bp.BreakerStats(); st.State != "" && st.State != "disabled" {
			snap.BreakerState = st.State
			snap.BreakerTrips = st.Trips
			snap.BreakerRejects = st.Rejects
			snap.BreakerProbes = st.Probes
		}
	}
	if sp, ok := h.transport.(interface{ ShardStats() []metrics.ShardHealth }); ok {
		snap.Shards = sp.ShardStats()
	}
	return snap
}

// Traces snapshots the client's trace rings (empty without WithTracing).
// These are the application-side traces, with daemon spans merged in; the
// daemon's own rings are served by its "traces" verb.
func (h *HybridClient) Traces() trace.Dump { return h.tracer.Dump() }

// Tracer exposes the client's tracer so callers can share it with an
// observability server (nil without WithTracing).
func (h *HybridClient) Tracer() *trace.Tracer { return h.tracer }

// Close flushes the audit logger (a no-op for synchronous loggers) and
// releases the underlying transport.
func (h *HybridClient) Close() error {
	if h.audit != nil {
		_ = h.audit.Close()
	}
	return h.transport.Close()
}
