// Package joza is a hybrid taint-inference defense against SQL injection,
// reproducing the system described in "Joza: Hybrid Taint Inference for
// Defeating Web Application SQL Injection Attacks" (DSN 2015).
//
// Joza decides whether a SQL query issued by an application is an injection
// attack by combining two complementary inference techniques:
//
//   - Negative taint inference (NTI) correlates the raw inputs of the
//     current request with the query using approximate string matching.
//     A critical SQL token (keyword, function, operator, delimiter or
//     comment) that derives from an input indicates an attack.
//   - Positive taint inference (PTI) trusts only the string fragments
//     extracted from the application's own source code. A critical token
//     not fully contained in a single trusted fragment indicates an attack.
//
// A query is safe if and only if both analyses deem it safe. Attacks
// crafted to evade NTI (via application-side transformations such as magic
// quotes or whitespace trimming) are caught by PTI, and attacks crafted to
// evade PTI (short payloads rebuilt from the application's own fragment
// vocabulary) are caught by NTI.
//
// # Quick start
//
//	frags, _ := joza.FragmentsFromDir("/var/www/app")
//	guard, _ := joza.New(joza.WithFragments(frags))
//	verdict, err := guard.Check(ctx, joza.Request{
//		Site:   "search.php",
//		Query:  query,
//		Inputs: []joza.Input{{Source: "get", Name: "id", Value: rawID}},
//	})
//	if err != nil || verdict.Attack {
//		// block the query
//	}
//
// Use Authorize to get policy-aware error behaviour instead of a raw
// verdict. Guard and RemoteGuard both implement Checker, so code written
// against Checker runs unchanged in process or against a PTI daemon.
package joza

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"joza/internal/audit"
	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/fragments"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/obs"
	"joza/internal/phpsrc"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// Re-exported types so callers need only import package joza.
type (
	// Input is one captured application input (source, name, raw value).
	Input = nti.Input
	// Verdict is the hybrid decision for one query.
	Verdict = core.Verdict
	// Result is the outcome of a single analyzer.
	Result = core.Result
	// Marking is one taint annotation over a query span. An NTI marking
	// of one named input keeps the input's Source and Name apart, and
	// Label renders "source:name"; otherwise Name is empty and Source is
	// the whole label (a mirrored value's comma-joined keys, a nameless
	// input's key, or PTI's fragment text). A match's edit distance is
	// not on the marking: an attack reason carries it (Reason.Distance).
	Marking = core.Marking
	// Reason explains why an analyzer flagged a query.
	Reason = core.Reason
	// Policy selects attack-recovery behaviour.
	Policy = core.Policy
	// AttackError is returned by Authorize when a query is blocked.
	AttackError = core.AttackError
	// CacheMode selects the PTI caching configuration.
	CacheMode = pti.CacheMode
	// Metrics is a point-in-time snapshot of a Guard's counters: checks,
	// attacks per analyzer, PTI cache activity (totals and per shard),
	// NTI matcher activity and check-latency quantiles. The same type is
	// served by the PTI daemon's "stats" verb (with per-op wire counters
	// filled in) and returned by RemoteGuard.Metrics (which also counts
	// checks degraded by a daemon outage).
	Metrics = metrics.Snapshot
	// CacheShardMetrics is the activity of one PTI cache shard.
	CacheShardMetrics = metrics.CacheShard
	// Trace is the recorded evidence of one sampled check: per-stage
	// durations plus the matched inputs, covering fragments and uncovered
	// tokens behind the verdict.
	Trace = trace.Span
	// TraceDump is the queryable view of a Guard's recent and notable
	// traces, as returned by Guard.Traces and served at /traces.
	TraceDump = trace.Dump
	// ProfileStore is an immutable per-call-site query-skeleton profile,
	// the enforcement side of the optional third analyzer stage. Build one
	// from a learning run (ProfileRecorder.Store) or load a serialized one
	// with LoadProfiles.
	ProfileStore = profile.Store
	// ProfileRecorder accumulates query-skeleton profiles during a
	// learning run; safe for concurrent use.
	ProfileRecorder = profile.Recorder
	// Dialect selects the SQL dialect the Guard tokenizes under: quote
	// semantics, string escape mode, placeholder syntax and comment rules
	// all differ across databases, and lexing traffic under the wrong
	// dialect mis-draws the string/code boundary attackers exploit. The
	// zero value is DialectMySQL.
	Dialect = sqltoken.Dialect
	// Request is one check: the query, the raw inputs of the application
	// request that issued it, the call site (keying the optional profile
	// stage; empty skips it) and the SQL dialect. A zero Dialect means the
	// checking front door's own dialect; a different one is refused
	// fail-closed rather than analyzed under the wrong token boundaries.
	Request = engine.Request
)

// Checker is the one check every SQL front door offers: Guard in process,
// RemoteGuard over a PTI daemon. Both give the same verdict for the same
// Request.
type Checker interface {
	// Check returns the hybrid verdict for req, or an error (with no
	// verdict) when ctx ended or a daemon outage was not degraded.
	Check(ctx context.Context, req Request) (Verdict, error)
	// Authorize returns nil when req is safe, an *AttackError carrying
	// the verdict and the door's policy when it is not, or the error
	// Check would return.
	Authorize(ctx context.Context, req Request) error
}

// SQL dialects, re-exported.
const (
	// DialectMySQL is the default: backslash string escapes, `#` comments,
	// backtick-quoted identifiers, `?` and `:name` placeholders.
	DialectMySQL = sqltoken.MySQL
	// DialectPostgres: `"` quotes identifiers, backslash is literal inside
	// '…' (E'…' re-enables it), $$…$$ dollar quoting, $1 placeholders,
	// nested block comments, `#` is an operator.
	DialectPostgres = sqltoken.Postgres
	// DialectSQLite: `"` and backtick both quote identifiers, no backslash
	// escapes, `?`/`?NNN`/`:name`/`@name`/`$name` placeholders.
	DialectSQLite = sqltoken.SQLite
)

// ParseDialect maps a configuration string ("mysql", "postgres", "pg",
// "sqlite", …) to its Dialect, for flag and config-file plumbing.
func ParseDialect(s string) (Dialect, error) { return sqltoken.ParseDialect(s) }

// NewProfileRecorder returns an empty profile recorder for a learning run.
func NewProfileRecorder() *ProfileRecorder { return profile.NewRecorder() }

// LoadProfiles reads a serialized profile store from path.
func LoadProfiles(path string) (*ProfileStore, error) { return profile.Load(path) }

// ParseProfiles parses a serialized profile store.
func ParseProfiles(data []byte) (*ProfileStore, error) { return profile.Parse(data) }

// NewProfileRecorderDialect returns an empty profile recorder computing
// skeletons under dialect d; pass it to a learning Guard built with the
// same WithDialect.
func NewProfileRecorderDialect(d Dialect) *ProfileRecorder {
	return profile.NewRecorderDialect(d)
}

// QuerySkeleton returns the normalized query skeleton the profile stage
// keys on: literal-, whitespace- and case-insensitive token structure,
// tokenized under the MySQL dialect.
func QuerySkeleton(query string) string { return profile.Skeleton(query) }

// QuerySkeletonDialect is QuerySkeleton tokenized under dialect d.
// Skeletons from different dialects are not comparable.
func QuerySkeletonDialect(d Dialect, query string) string {
	return profile.SkeletonDialect(d, query)
}

// Recovery policies and cache modes, re-exported.
const (
	// PolicyTerminate aborts the request on attack (the Joza default).
	PolicyTerminate = core.PolicyTerminate
	// PolicyErrorVirtualize makes the blocked query look like a database
	// error, relying on the application's error handling.
	PolicyErrorVirtualize = core.PolicyErrorVirtualize

	// CacheNone disables PTI caching.
	CacheNone = pti.CacheNone
	// CacheQuery caches PTI verdicts per exact query string.
	CacheQuery = pti.CacheQuery
	// CacheQueryAndStructure also caches per query-structure skeleton.
	CacheQueryAndStructure = pti.CacheQueryAndStructure
)

// Guard is the hybrid detector: a thin front door over the shared
// internal/engine pipeline. A Guard is safe for concurrent use; its
// analysis state lives in an immutable engine.Snapshot that refreshes
// (Manager, jozad -watch) swap atomically without locking the Check hot
// path.
type Guard struct {
	eng       *engine.Engine
	policy    core.Policy
	dialect   sqltoken.Dialect
	obsServer *obs.Server
	audit     *audit.Logger
	// buildSnap rebuilds the analysis snapshot over a new fragment set
	// using the Guard's original configuration; the Manager drives it on
	// Refresh.
	buildSnap func(set *fragments.Set) (*engine.Snapshot, error)
}

type config struct {
	fragmentTexts []string
	set           *fragments.Set
	threshold     float64
	cacheMode     pti.CacheMode
	cacheCapacity int
	policy        core.Policy
	ptiOptions    []pti.Option
	ntiOptions    []nti.Option
	disableNTI    bool
	disablePTI    bool
	auditWriter   io.Writer
	auditAsync    bool
	auditDepth    int
	obs           *ObservabilityConfig
	failMode      engine.FailureMode
	budgets       Budgets
	dialect       sqltoken.Dialect

	profileStore    *profile.Store
	profilePath     string
	profileRecorder *profile.Recorder
	profileStrict   bool
}

// Option configures a Guard.
type Option func(*config)

// WithFragments supplies the trusted fragment texts (string literals
// extracted from the application). Fragments without SQL tokens are
// dropped automatically.
func WithFragments(texts []string) Option {
	return func(c *config) { c.fragmentTexts = append(c.fragmentTexts, texts...) }
}

// WithFragmentSet supplies a prebuilt fragment set, overriding
// WithFragments.
func WithFragmentSet(set *fragments.Set) Option {
	return func(c *config) { c.set = set }
}

// WithDialect sets the SQL dialect the Guard tokenizes under (default
// DialectMySQL, preserving pre-dialect behavior exactly). The dialect
// threads through every layer that consumes tokens — NTI and PTI lexing,
// the PTI cache keys, fragment-set filtering and the profile skeletons —
// so a guard fronting a Postgres database draws the same string/code
// boundary the database will. A profile store supplied via
// WithProfileStore/WithProfileFile must have been trained under the same
// dialect; New (and every Manager.Refresh rebuild) fails on a mismatch.
func WithDialect(d Dialect) Option {
	return func(c *config) { c.dialect = d }
}

// WithNTIThreshold sets the NTI difference-ratio threshold (default 0.20).
func WithNTIThreshold(t float64) Option {
	return func(c *config) { c.threshold = t }
}

// WithCacheMode selects the PTI cache configuration (default
// CacheQueryAndStructure) and capacity (default 4096 entries per cache).
func WithCacheMode(mode CacheMode, capacity int) Option {
	return func(c *config) {
		c.cacheMode = mode
		c.cacheCapacity = capacity
	}
}

// WithPolicy sets the recovery policy used by Authorize.
func WithPolicy(p Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithPTIOptions forwards extra options to the PTI analyzer (ablation
// switches such as the naive matcher).
func WithPTIOptions(opts ...pti.Option) Option {
	return func(c *config) { c.ptiOptions = append(c.ptiOptions, opts...) }
}

// WithNTIOptions forwards extra options to the NTI analyzer.
func WithNTIOptions(opts ...nti.Option) Option {
	return func(c *config) { c.ntiOptions = append(c.ntiOptions, opts...) }
}

// WithoutNTI disables the NTI component (used to evaluate PTI alone).
func WithoutNTI() Option {
	return func(c *config) { c.disableNTI = true }
}

// WithoutPTI disables the PTI component (used to evaluate NTI alone).
func WithoutPTI() Option {
	return func(c *config) { c.disablePTI = true }
}

// WithProfileStore enables the query-skeleton profile stage in
// enforcement mode over st: a query whose normalized skeleton was never
// seen from its call site during training is flagged as the third
// analyzer vote. Only checks whose Request carries a Site consult it.
func WithProfileStore(st *ProfileStore) Option {
	return func(c *config) { c.profileStore = st }
}

// WithProfileFile is WithProfileStore loading the serialized store at
// path — at construction and again on every Manager.Refresh, so a
// retrained profile deploys with the same atomic swap as fragments. A
// corrupt file fails the rebuild, and Refresh keeps serving the prior
// snapshot (sticky-pending), exactly like a failed fragment reload.
func WithProfileFile(path string) Option {
	return func(c *config) { c.profilePath = path }
}

// WithProfileLearning puts the profile stage in learning mode: checks
// that carry a call site record their skeleton into r and the stage never
// votes. Serialize r.Store() after exercising benign traffic, then deploy
// it with WithProfileStore or WithProfileFile.
func WithProfileLearning(r *ProfileRecorder) Option {
	return func(c *config) { c.profileRecorder = r }
}

// WithProfileStrict makes enforcement also flag queries from call sites
// that have no training profile at all. Off by default, so a training
// coverage gap degrades to "no opinion" instead of blocking the site.
func WithProfileStrict() Option {
	return func(c *config) { c.profileStrict = true }
}

// WithStrictPolicy enforces the strict (Ray–Ligatti-style) attack
// definition in both analyzers: user input may not contribute identifiers
// (field or table names) either. The default pragmatic policy (Section II)
// permits them because common applications — advanced search in
// particular — pass field names through input legitimately.
func WithStrictPolicy() Option {
	return func(c *config) {
		c.ntiOptions = append(c.ntiOptions, nti.WithStrictPolicy())
		c.ptiOptions = append(c.ptiOptions, pti.WithStrictPolicy())
	}
}

// FailureMode selects how a Guard resolves a check the pipeline could not
// complete normally — a panicking analyzer stage or a blown cost budget.
// The default, FailClosed, treats such checks as attacks.
type FailureMode = engine.FailureMode

// Failure modes, re-exported.
const (
	// FailClosed converts internal failures into attack verdicts: nothing
	// runs unchecked, at the cost of availability during the failure.
	FailClosed = engine.FailClosed
	// FailOpen serves the partial verdict from the stages that did
	// complete: the request path stays up, at the cost of coverage.
	FailOpen = engine.FailOpen
)

// WithFailureMode sets how internal failures (contained panics, blown
// budgets) resolve (default FailClosed). Context cancellation is not a
// failure: it still propagates as an error with no verdict.
func WithFailureMode(m FailureMode) Option {
	return func(c *config) { c.failMode = m }
}

// Budgets caps the work one check may cost, defending the detector itself
// against hostile over-sized inputs (a 4 MB "query" must not stall every
// other request). A zero field disables that cap; the zero value disables
// them all. A check that blows a budget resolves via the failure mode and
// is counted in the metrics snapshot's OverBudgetChecks.
type Budgets struct {
	// MaxQueryBytes rejects queries longer than this before any analysis.
	MaxQueryBytes int
	// MaxInputBytes rejects requests whose summed input values exceed this
	// before any analysis.
	MaxInputBytes int
	// NTIDPCells bounds the dynamic-programming cells one NTI check may
	// fill across all inputs.
	NTIDPCells int
	// PTITokens bounds how many tokens a query may lex into for PTI.
	PTITokens int
}

// WithBudgets enforces per-check cost budgets (default: none).
func WithBudgets(b Budgets) Option {
	return func(c *config) { c.budgets = b }
}

// ObservabilityConfig tunes the optional observability surface enabled by
// WithObservability: decision tracing plus an HTTP listener serving
// Prometheus /metrics, /healthz, /traces and /debug/pprof/.
type ObservabilityConfig struct {
	// Addr is the HTTP listen address for the observability endpoints
	// (host:port; port 0 picks a free port). Empty disables the listener;
	// tracing still runs and Guard.Traces still works.
	Addr string
	// TraceSampleEvery traces one check in N. Zero defaults to 1 (trace
	// every check); a negative value disables tracing while keeping the
	// HTTP listener.
	TraceSampleEvery int
	// TraceRingSize bounds each trace ring buffer (default 128).
	TraceRingSize int
	// TraceSlowThreshold routes benign traces at or above this duration
	// into the notable ring. Zero keeps only attacks there.
	TraceSlowThreshold time.Duration
}

func (oc ObservabilityConfig) traceConfig() trace.Config {
	every := oc.TraceSampleEvery
	if every == 0 {
		every = 1
	}
	return trace.Config{
		SampleEvery:   every,
		RingSize:      oc.TraceRingSize,
		SlowThreshold: oc.TraceSlowThreshold,
	}
}

// WithObservability enables decision tracing and (when cfg.Addr is set)
// the observability HTTP listener. Disabled tracing costs Check nothing:
// the pipeline's recording sites are nil-safe no-ops.
func WithObservability(cfg ObservabilityConfig) Option {
	return func(c *config) { c.obs = &cfg }
}

// ErrNoFragments is returned by New when PTI is enabled but no fragment
// source was provided.
var ErrNoFragments = errors.New("joza: PTI requires fragments; use WithFragments, WithFragmentSet or WithoutPTI")

// New constructs a Guard.
func New(opts ...Option) (*Guard, error) {
	cfg := config{
		threshold:     nti.DefaultThreshold,
		cacheMode:     pti.CacheQueryAndStructure,
		cacheCapacity: 4096,
		policy:        core.PolicyTerminate,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.dialect.Valid() {
		return nil, fmt.Errorf("joza: invalid dialect %v", cfg.dialect)
	}
	if cfg.dialect != sqltoken.MySQL {
		// Thread the dialect into both analyzers via the option slices so
		// refresh rebuilds re-apply it. MySQL appends nothing: the default
		// path stays byte-identical to pre-dialect builds.
		cfg.ntiOptions = append(cfg.ntiOptions, nti.WithDialect(cfg.dialect))
		cfg.ptiOptions = append(cfg.ptiOptions, pti.WithDialect(cfg.dialect))
	}
	// Analyzer-side budgets ride the option slices so refresh rebuilds
	// (buildSnap below) re-apply them to every fresh snapshot.
	if cfg.budgets.MaxQueryBytes > 0 {
		cfg.ntiOptions = append(cfg.ntiOptions, nti.WithMaxQueryBytes(cfg.budgets.MaxQueryBytes))
		cfg.ptiOptions = append(cfg.ptiOptions, pti.WithMaxQueryBytes(cfg.budgets.MaxQueryBytes))
	}
	if cfg.budgets.NTIDPCells > 0 {
		cfg.ntiOptions = append(cfg.ntiOptions, nti.WithDPCellBudget(cfg.budgets.NTIDPCells))
	}
	if cfg.budgets.PTITokens > 0 {
		cfg.ptiOptions = append(cfg.ptiOptions, pti.WithMaxTokens(cfg.budgets.PTITokens))
	}
	set := cfg.set
	if set == nil {
		set = fragments.NewSetDialect(cfg.dialect, cfg.fragmentTexts)
	}
	profileConfigured := cfg.profileStore != nil || cfg.profilePath != "" || cfg.profileRecorder != nil
	if cfg.disableNTI && cfg.disablePTI && !profileConfigured {
		return nil, errors.New("joza: both analyzers disabled")
	}
	// buildSnap validates and assembles an analysis snapshot over a
	// fragment set with this Guard's configuration; Manager.Refresh swaps
	// in its result for fresh sets.
	buildSnap := func(set *fragments.Set) (*engine.Snapshot, error) {
		if !cfg.disablePTI && set.Len() == 0 {
			return nil, ErrNoFragments
		}
		snap := &engine.Snapshot{Set: set, Dialect: cfg.dialect}
		if !cfg.disablePTI {
			cached := pti.NewCached(pti.New(set, cfg.ptiOptions...), cfg.cacheMode, cfg.cacheCapacity)
			snap.PTI = cached
			snap.Analyzers = append(snap.Analyzers, engine.PTIStage{Analyzer: cached})
		}
		if !cfg.disableNTI {
			ntiOpts := append([]nti.Option{nti.WithThreshold(cfg.threshold)}, cfg.ntiOptions...)
			snap.NTI = nti.New(ntiOpts...)
		}
		switch {
		case cfg.profileRecorder != nil:
			if got := cfg.profileRecorder.Dialect(); got != cfg.dialect {
				return nil, fmt.Errorf("joza: profile recorder computes %s-dialect skeletons, guard runs %s", got, cfg.dialect)
			}
			snap.Analyzers = append(snap.Analyzers, engine.ProfileStage{Recorder: cfg.profileRecorder})
		case cfg.profilePath != "":
			// Loaded inside buildSnap so Manager.Refresh picks up retrained
			// profiles, and a corrupt file fails the rebuild (the manager
			// keeps serving the prior snapshot).
			st, err := profile.Load(cfg.profilePath)
			if err != nil {
				return nil, err
			}
			if err := st.ForDialect(cfg.dialect); err != nil {
				return nil, fmt.Errorf("joza: %w", err)
			}
			snap.Profiles = st
			snap.Analyzers = append(snap.Analyzers, engine.ProfileStage{Store: st, BlockUnknownSites: cfg.profileStrict})
		case cfg.profileStore != nil:
			if err := cfg.profileStore.ForDialect(cfg.dialect); err != nil {
				return nil, fmt.Errorf("joza: %w", err)
			}
			snap.Profiles = cfg.profileStore
			snap.Analyzers = append(snap.Analyzers, engine.ProfileStage{Store: cfg.profileStore, BlockUnknownSites: cfg.profileStrict})
		}
		// NTI runs last: it lexes only when an input matches the query, and
		// then reuses the tokens PTI or the profile stage published. The
		// verdict is an OR over stages, so the order does not change it.
		if snap.NTI != nil {
			snap.Analyzers = append(snap.Analyzers, engine.NTIStage{Analyzer: snap.NTI})
		}
		snap.Version = engine.ComputeVersion(set, snap.Profiles, cfg.dialect,
			fmt.Sprintf("q%d:i%d", cfg.budgets.MaxQueryBytes, cfg.budgets.MaxInputBytes))
		return snap, nil
	}
	snap, err := buildSnap(set)
	if err != nil {
		return nil, err
	}
	g := &Guard{policy: cfg.policy, dialect: cfg.dialect, buildSnap: buildSnap}
	engOpts := []engine.Option{
		engine.WithPolicy(cfg.policy),
		engine.WithFailureMode(cfg.failMode),
		engine.WithLimits(engine.Limits{
			MaxQueryBytes: cfg.budgets.MaxQueryBytes,
			MaxInputBytes: cfg.budgets.MaxInputBytes,
		}),
	}
	if cfg.auditWriter != nil {
		if cfg.auditAsync {
			g.audit = audit.NewAsyncLogger(cfg.auditWriter, cfg.auditDepth)
		} else {
			g.audit = audit.NewLogger(cfg.auditWriter)
		}
		engOpts = append(engOpts, engine.WithAuditLogger(g.audit))
	}
	var tracer *trace.Tracer
	if cfg.obs != nil {
		tracer = trace.New(cfg.obs.traceConfig())
		engOpts = append(engOpts, engine.WithTracer(tracer))
	}
	g.eng = engine.New(snap, engOpts...)
	if cfg.obs != nil && cfg.obs.Addr != "" {
		srv := obs.NewServer(g.Metrics, tracer)
		if _, err := srv.Start(cfg.obs.Addr); err != nil {
			return nil, err
		}
		g.obsServer = srv
	}
	return g, nil
}

// swapFragmentSet rebuilds the analysis snapshot over set with the Guard's
// original configuration and swaps it in atomically. In-flight checks
// finish on the snapshot they started with; metrics counters, tracer and
// the observability listener carry over. Used by Manager.Refresh.
func (g *Guard) swapFragmentSet(set *fragments.Set) error {
	snap, err := g.buildSnap(set)
	if err != nil {
		return err
	}
	g.eng.Swap(snap)
	return nil
}

// FragmentsFromDir extracts trusted fragment texts from all source files
// under dir (files with extensions exts; nil means ".php").
func FragmentsFromDir(dir string, exts ...string) ([]string, error) {
	var extList []string
	if len(exts) > 0 {
		extList = exts
	}
	lits, err := phpsrc.ExtractDir(dir, extList)
	if err != nil {
		return nil, fmt.Errorf("extract fragments: %w", err)
	}
	return phpsrc.Texts(lits), nil
}

// FragmentsFromSource extracts trusted fragment texts from a single source
// text (convenience for tests and examples).
func FragmentsFromSource(src string) []string {
	return phpsrc.Texts(phpsrc.Extract("", src))
}

// FragmentCount returns the number of trusted fragments the Guard holds.
func (g *Guard) FragmentCount() int { return g.eng.Snapshot().Set.Len() }

// SampleFragments returns up to n of the longest trusted fragments, for
// inspection (Table III-style output).
func (g *Guard) SampleFragments(n int) []string { return g.eng.Snapshot().Set.Sample(n) }

// SnapshotVersion returns the content-derived version of the analysis
// snapshot currently serving checks: a stable hash over the fragment set,
// profile store, dialect and limits. Every Verdict carries the version of
// the snapshot that produced it, so a verdict's Version matching this
// value proves it came from the current policy generation.
func (g *Guard) SnapshotVersion() string { return g.eng.Snapshot().Version }

// Policy returns the Guard's recovery policy.
func (g *Guard) Policy() Policy { return g.policy }

// Dialect returns the SQL dialect the Guard tokenizes under.
func (g *Guard) Dialect() Dialect { return g.dialect }

// Check analyzes req.Query against req.Inputs and returns the hybrid
// verdict: PTI first, then the profile stage (when configured and
// req.Site is set), then NTI; the query is an attack if any flags it.
//
// The query is lexed lazily: a PTI query-cache hit on a request with no
// usable NTI inputs performs no lexing at all, and when several stages
// need tokens the lex runs once and is shared.
//
// A zero req.Dialect means the Guard's own dialect; any other dialect
// the Guard was not built for is refused through the failure mode, never
// re-lexed. ctx threads through every analyzer, with cancellation
// checkpoints inside the NTI approximate matcher's DP loop, so a canceled
// or expired context aborts a long analysis promptly and returns its
// error with no verdict recorded.
func (g *Guard) Check(ctx context.Context, req Request) (v Verdict, err error) {
	err = g.eng.CheckInto(ctx, req.OrDialect(g.dialect), &v)
	return v, err
}

// Authorize checks req and returns nil when the query is safe, an
// *AttackError carrying the verdict and the Guard's policy when it is
// not, or ctx's error when the check was canceled.
func (g *Guard) Authorize(ctx context.Context, req Request) error {
	return g.eng.Authorize(ctx, req.OrDialect(g.dialect))
}

// CheckContextAt is Check with the request spelled out positionally:
// site keys the query-skeleton profile stage, and the Guard's dialect
// applies. It calls the engine itself: each wrapper returning a Verdict
// would copy it once more.
func (g *Guard) CheckContextAt(ctx context.Context, site, query string, inputs []Input) (v Verdict, err error) {
	err = g.eng.CheckInto(ctx, Request{Site: site, Query: query, Inputs: inputs, Dialect: g.dialect}, &v)
	return v, err
}

// Metrics returns a snapshot of the Guard's counters: checks and attacks,
// PTI cache totals and per-shard activity, NTI matcher activity, and
// check-latency quantiles. Safe to call concurrently with Check.
func (g *Guard) Metrics() Metrics {
	snap := g.eng.Collector().Snapshot()
	g.eng.Snapshot().FillMetrics(&snap)
	return snap
}

// Traces snapshots the Guard's trace rings: recent sampled checks plus the
// notable (attack or slow) ones. Empty when observability is off.
func (g *Guard) Traces() TraceDump { return g.eng.Tracer().Dump() }

// ObservabilityAddr returns the bound address of the observability HTTP
// listener, or "" when none is running.
func (g *Guard) ObservabilityAddr() string {
	if g.obsServer == nil {
		return ""
	}
	return g.obsServer.Addr()
}

// Close releases the Guard's background resources: it flushes and stops
// the audit logger (a no-op for synchronous loggers) and shuts down the
// observability listener. Guards without either need no Close; calling it
// anyway is a no-op.
func (g *Guard) Close() error {
	var err error
	if g.audit != nil {
		err = g.audit.Close()
	}
	if g.obsServer != nil {
		if cerr := g.obsServer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// AuditDropped reports how many audit records an async audit logger had
// to drop because its sink could not keep up (always zero otherwise).
func (g *Guard) AuditDropped() uint64 {
	if g.audit == nil {
		return 0
	}
	return g.audit.Dropped()
}

// PTICacheStats returns PTI cache counters (zero value when PTI is
// disabled).
func (g *Guard) PTICacheStats() pti.CacheStats {
	if pa := g.eng.Snapshot().PTI; pa != nil {
		return pa.Stats()
	}
	return pti.CacheStats{}
}

// RenderVerdict renders the verdict in the paper's figure style: the query,
// a marker line (− for negative taint, + for positive taint) and a line
// marking critical tokens with c.
func RenderVerdict(v Verdict) string {
	toks := sqltoken.Lex(v.Query)
	crit := sqltoken.CriticalTokens(toks)
	return core.RenderMarkings(v.Query, v.NTI.Markings, v.PTI.Markings, crit)
}
