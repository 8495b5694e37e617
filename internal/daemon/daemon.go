// Package daemon implements the PTI daemon of the Joza architecture
// (Section IV): a separate process that loads the fragment set, parses
// intercepted queries, runs the PTI analysis (with its caches), and
// returns the verdict. The paper's daemon also ships the parsed token
// stream back so the in-application NTI component can skip its own lex;
// this one never does, and each side lexes only when it needs tokens: the
// daemon on a PTI cache miss, the client when an input matches the query.
// Every connection speaks length-prefixed binary frames from its first
// byte (codec.go), which carry only what the peer uses; the control verbs
// ride them as JSON envelopes. The daemon and its clients are built from
// one tree and upgraded together: a client from before binary frames is
// refused with one JSON error line, never dropped silently.
//
// The daemon runs the same pipeline as the in-process Guard: Server and
// Direct are wire front doors over an engine.Engine serving one
// engine.Snapshot (see NewSnapshot) of the PTI and query-skeleton profile
// stages, so budgets, panic containment, metrics and tracing are the
// engine's. Analysis failures resolve fail-closed into attack replies.
// The snapshot swaps whole (SetSnapshot, or the prepare/commit rollout
// verbs), and a fleet's daemons are replicas that each serve the whole
// fragment corpus.
//
// Two transports are provided, mirroring the paper's deployment study:
//
//   - Remote: binary frames over a net.Conn (named/anonymous pipes in the
//     paper; TCP or in-memory pipes here). This is the easy-to-deploy
//     user-level daemon. Its one client is the Pool, which multiplexes
//     concurrent requests over Size connections (one for the paper's
//     single pipe), bounds each round trip with a deadline, replaces
//     failed connections with jittered exponential backoff, and with
//     BatchSize coalesces concurrent checks into batch frames.
//   - Direct: an in-process call with no serialization, the stand-in for
//     the "PHP extension" deployment whose overhead the paper estimates
//     by excluding spawn and communication time.
//
// HybridClient composes a transport with the in-application NTI analyzer
// and a degradation policy that decides what happens when the daemon is
// unreachable (fail-open: NTI-only; fail-closed: treat as attack).
package daemon

import (
	"context"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/metrics"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// AnalysisReply is the daemon's answer for one query.
type AnalysisReply struct {
	// Attack is the PTI verdict.
	Attack bool `json:"attack"`
	// Reasons explains the verdict (uncovered critical tokens).
	Reasons []ReasonJSON `json:"reasons,omitempty"`
	// Tokens is the query's token stream as the paper's daemon sent it.
	// No reply fills it: a binary reply has no token field. The field and
	// TokenStream stay only because the jozasuite replay binds them; they
	// go when that replay is retargeted.
	Tokens []TokenJSON `json:"tokens,omitempty"`
	// Trace is the daemon-side decision trace, present when the daemon
	// sampled this check. A tracing HybridClient merges it into its own
	// span so one trace shows both sides of the wire.
	Trace *trace.Span `json:"trace,omitempty"`
	// Profile is the query-skeleton profile verdict, present when the
	// request carried a call site and the daemon has profiles (or a
	// learning recorder). It rides the analyze reply so the third stage
	// costs no extra round trip.
	Profile *ProfileReply `json:"profile,omitempty"`
	// Version is the content-derived version of the snapshot that served
	// this verdict. Empty means an unversioned daemon, which clients treat
	// as "unknown", never as a mismatch.
	Version string `json:"version,omitempty"`
}

// ProfileReply is the daemon-side outcome of the query-skeleton profile
// stage for one (site, query) pair.
type ProfileReply struct {
	// Attack is set for an unseen skeleton — the site never issued this
	// query shape during training. Unknown sites are reported via Outcome
	// and left to the client's strictness policy.
	Attack bool `json:"attack,omitempty"`
	// Outcome is "learned", "seen", "unseen" or "site-unknown".
	Outcome  string `json:"outcome"`
	Site     string `json:"site,omitempty"`
	Skeleton string `json:"skeleton,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// ReasonJSON is the wire form of core.Reason.
type ReasonJSON struct {
	Token  TokenJSON `json:"token"`
	Detail string    `json:"detail"`
}

// TokenJSON is the wire form of sqltoken.Token.
type TokenJSON struct {
	Kind  int    `json:"kind"`
	Text  string `json:"text"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

func toTokenJSON(t sqltoken.Token) TokenJSON {
	return TokenJSON{Kind: int(t.Kind), Text: t.Text, Start: t.Start, End: t.End}
}

func fromTokenJSON(t TokenJSON) sqltoken.Token {
	return sqltoken.Token{Kind: sqltoken.Kind(t.Kind), Text: t.Text, Start: t.Start, End: t.End}
}

// TokenStream converts the reply's token stream back to lexer tokens. It
// returns nil for a reply that carries none, which is every reply, so the
// caller's NTI analyzer lexes for itself.
func (r *AnalysisReply) TokenStream() []sqltoken.Token {
	if len(r.Tokens) == 0 {
		return nil
	}
	out := make([]sqltoken.Token, len(r.Tokens))
	for i, t := range r.Tokens {
		out[i] = fromTokenJSON(t)
	}
	return out
}

// Result converts the reply into a core PTI result.
func (r *AnalysisReply) Result() core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI, Attack: r.Attack}
	if len(r.Reasons) > 0 {
		res.Reasons = make([]core.Reason, len(r.Reasons))
		for i, rj := range r.Reasons {
			res.Reasons[i] = core.Reason{Token: fromTokenJSON(rj.Token), Detail: rj.Detail}
		}
	}
	return res
}

// NewSnapshot wraps a caller-built analyzer in the snapshot a daemon
// serves: the PTI stage over analyzer, then the profile stage when it
// holds a store or a learning recorder, labeled with version ("" for
// unversioned) and with no limits. A versioned generation is built by
// engine.Build instead, which also owns its limits. Server and Direct run
// every check over such a snapshot with engine.Check, so the daemon
// shares the in-process Guard's pipeline, containment and recording.
func NewSnapshot(analyzer *pti.Cached, profiles engine.ProfileStage, version string) *engine.Snapshot {
	return withProfiles(&engine.Snapshot{
		Analyzers: []engine.Analyzer{engine.PTIStage{Analyzer: analyzer}},
		Dialect:   analyzer.Dialect(),
		Set:       analyzer.Set(),
		PTI:       analyzer,
		Version:   version,
	}, profiles)
}

// withProfiles returns a copy of snap whose profile stage is profiles: any
// profile stage snap had is replaced (or dropped, when profiles holds
// neither a store nor a recorder) and every other stage keeps its place.
func withProfiles(snap *engine.Snapshot, profiles engine.ProfileStage) *engine.Snapshot {
	next := *snap
	next.Analyzers = make([]engine.Analyzer, 0, len(snap.Analyzers)+1)
	for _, a := range snap.Analyzers {
		if _, ok := a.(engine.ProfileStage); !ok {
			next.Analyzers = append(next.Analyzers, a)
		}
	}
	if profiles.Store != nil || profiles.Recorder != nil {
		next.Analyzers = append(next.Analyzers, profiles)
	}
	next.Profiles = profiles.Store
	return &next
}

// replyFor turns the verdict of a check on site into its wire reply; Server
// and Direct both answer through it. The PTI slot rides Attack and Reasons,
// together with any attack the profile slot does not account for, so a
// failed check the engine resolved fail-closed is never answered as safe.
// The profile stage's evidence rides Profile, and the finished span Trace.
func replyFor(v *core.Verdict, site string) *AnalysisReply {
	r := &AnalysisReply{
		Attack:  v.PTI.Attack || (v.Attack && !v.Profile.Attack),
		Trace:   v.Trace,
		Version: v.Version,
	}
	if len(v.PTI.Reasons) > 0 {
		r.Reasons = make([]ReasonJSON, len(v.PTI.Reasons))
		for i, reason := range v.PTI.Reasons {
			r.Reasons[i] = ReasonJSON{Token: toTokenJSON(reason.Token), Detail: reason.DetailText()}
		}
	}
	if v.ProfileOutcome != "" || v.Profile.Attack {
		p := &ProfileReply{Attack: v.Profile.Attack, Outcome: v.ProfileOutcome, Site: site, Skeleton: v.Skeleton}
		if len(v.Profile.Reasons) > 0 {
			p.Detail = v.Profile.Reasons[0].DetailText()
		}
		r.Profile = p
	}
	return r
}

// Transport is the application's view of the PTI analysis, independent of
// deployment.
type Transport interface {
	// AnalyzeSiteContext returns the daemon's reply for query issued from
	// call site site. A non-empty site makes the daemon run its
	// query-skeleton profile stage; an empty one is left off the wire. A
	// wire transport forwards ctx's remaining deadline budget in the
	// request so the server honors it, and a canceled ctx aborts the round
	// trip with ctx's error.
	AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error)
	// Close releases the transport.
	Close() error
}

// Direct is the in-process transport (the "PHP extension" estimate): the
// daemon's pipeline with no wire in between. Its replies carry no token
// stream: the caller's NTI analyzer lexes for itself, exactly as a client
// of the wire transport does.
type Direct struct {
	eng *engine.Engine
}

var _ Transport = (*Direct)(nil)

// NewDirect returns a Direct transport over analyzer.
func NewDirect(analyzer *pti.Cached) *Direct {
	return &Direct{eng: engine.New(NewSnapshot(analyzer, engine.ProfileStage{}, ""))}
}

// SetProfiles installs the query-skeleton profile store consulted by
// AnalyzeSiteContext. Call before serving checks.
func (d *Direct) SetProfiles(st *profile.Store) {
	d.eng.Swap(withProfiles(d.eng.Snapshot(), engine.ProfileStage{Store: st}))
}

// AnalyzeSiteContext implements Transport: there is no wire to bound, so
// ctx only gates the in-process analysis.
func (d *Direct) AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error) {
	var v core.Verdict
	if err := d.eng.CheckInto(ctx, engine.Request{Query: query, Site: site, Dialect: d.eng.Snapshot().Dialect}, &v); err != nil {
		return nil, err
	}
	return replyFor(&v, site), nil
}

// Close implements Transport.
func (d *Direct) Close() error { return nil }

// StatsReply is the payload of the protocol's "stats" verb: the same
// snapshot type joza.Guard.Metrics returns, so operators read one shape
// whether they ask the library or the daemon.
type StatsReply = metrics.Snapshot

// TracesReply is the payload of the protocol's "traces" verb: the daemon
// tracer's recent and notable rings, the same shape Guard.Traces returns.
type TracesReply = trace.Dump

// wireRequest is one request of the wire protocol. Op selects the verb and
// the frame kind that carries it (codec.go): empty or "analyze" analyzes
// Query; "batch" analyzes every item in Batch and replies with one
// response per item; "stats" returns the daemon's counters; "traces"
// returns the daemon's trace rings; "prepare", "commit" and "abort" drive
// the two-phase snapshot rollout. The control verbs travel as JSON, so
// every field is omitempty.
type wireRequest struct {
	Op    string `json:"op,omitempty"`
	Query string `json:"query,omitempty"`
	// TimeoutMs propagates the client's remaining deadline budget: the
	// server bounds the analysis with a context of this duration, so work
	// the client will no longer wait for is abandoned server-side too.
	// Zero means no server-side bound; a negative value is an
	// already-expired budget and fails immediately.
	// The server clamps absurd budgets to a sane ceiling before deriving a
	// deadline, so a hostile value cannot overflow into an expired context.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Batch carries the items of a "batch" op: each item is an analyze
	// request in its own right (Query plus optional TimeoutMs, honored
	// per item server-side). Item failures ride back per item on a healthy
	// stream; only malformed frames break the connection.
	Batch []wireRequest `json:"batch,omitempty"`
	// Site identifies the database call site issuing Query, keying the
	// query-skeleton profile lookup server-side. Empty skips the profile
	// stage.
	Site string `json:"site,omitempty"`
	// Dialect names the SQL dialect the client lexes under ("mysql",
	// "postgres", "sqlite"). Empty means MySQL, the protocol's original
	// implicit dialect. The server refuses a request whose dialect is unknown or
	// differs from its analyzer's — boundary bytes mean different things
	// under different dialects, so a cross-dialect verdict would be wrong
	// rather than approximate. The refusal rides the healthy stream (per
	// item inside a batch), like any other request-level failure.
	Dialect string `json:"dialect,omitempty"`
	// Version is a snapshot-version precondition. On analyze/batch it pins
	// the request to a policy generation: a server whose serving version
	// differs (including garbage or unknown values) refuses the request on
	// the healthy stream — per item inside a batch — instead of answering
	// from the wrong generation. On "commit" it pins which staged snapshot
	// may swap in. Empty means unpinned.
	Version string `json:"version,omitempty"`
}

// RolloutReply answers the two-phase rollout verbs. State is "staged"
// (prepare loaded and self-tested a snapshot without swapping it in),
// "committed" (the staged snapshot now serves) or "aborted" (the staged
// snapshot was discarded; serving state untouched). Version identifies the
// snapshot the verb acted on.
type RolloutReply struct {
	State   string `json:"state"`
	Version string `json:"version,omitempty"`
}

// wireDialect is the wire spelling of a dialect: empty for MySQL, which an
// absent dialect means on both ends, and the dialect name otherwise.
func wireDialect(d sqltoken.Dialect) string {
	if d == sqltoken.MySQL {
		return ""
	}
	return d.String()
}

// wireResponse is one reply of the wire protocol. The control verbs' replies
// travel as JSON; analyze and batch replies are decoded from their own
// frame kinds into Reply and Batch.
type wireResponse struct {
	Stats  *StatsReply  `json:"stats,omitempty"`
	Traces *TracesReply `json:"traces,omitempty"`
	// Rollout answers the "prepare", "commit" and "abort" verbs.
	Rollout *RolloutReply  `json:"rollout,omitempty"`
	Err     string         `json:"error,omitempty"`
	Reply   *AnalysisReply `json:"reply,omitempty"`
	// Batch answers a "batch" request with exactly one response per item,
	// in item order. A per-item failure sets that item's Err and leaves
	// its siblings intact.
	Batch []wireResponse `json:"batch,omitempty"`
}
