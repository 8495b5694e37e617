package daemon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"joza/internal/guardrail"
	"joza/internal/metrics"
	"joza/internal/trace"
)

// ErrVersionSkew is returned (wrapped) under SkewRefuseMixed when a shard
// answers from a snapshot version that is no longer the fleet's current
// one. It rides the healthy stream — per item inside batches — so a
// mid-rollout fleet refuses exactly the stale verdicts, not connections.
var ErrVersionSkew = errors.New("daemon: snapshot version skew")

// SkewPolicy selects what the fleet client does with a verdict served by
// a shard whose snapshot version differs from the fleet's current one —
// the mixed-version window of a rollout, or a shard left behind by a
// partial one.
type SkewPolicy int

const (
	// SkewWarn (the default) serves the stale verdict, counts it in the
	// shard's StaleServed and captures a notable trace span when a skew
	// tracer is configured. Availability over coherence.
	SkewWarn SkewPolicy = iota
	// SkewRefuseMixed refuses stale verdicts with ErrVersionSkew so
	// callers never act on a superseded policy generation. Coherence over
	// availability: the refusals are per check (per item in batches) and
	// end the moment the lagging shard converges.
	SkewRefuseMixed
)

// abortTimeout bounds the best-effort fleet-wide abort after a failed
// prepare. It is a fresh budget: the rollout's own context may be the
// reason prepare failed.
const abortTimeout = 5 * time.Second

// ShardedPool is a Transport over a fleet of jozad daemons: a consistent-
// hash ring routes every check to one shard by its query text, each shard
// is its own Pool with its own connections, retries and circuit breaker,
// and the control verbs (stats, traces) fan out to the whole fleet and
// merge. Because both routing and failure isolation are per shard, one
// dead daemon degrades only the queries it owns — checks routed to its
// siblings never notice, and the degradation policy of the HybridClient
// above applies per check.
//
// Every shard is a replica serving the whole fragment corpus: the PTI rule
// covers a query's critical tokens against the application's entire
// fragment set, and a benign query usually needs fragments from all over
// it, so no slice of the corpus can answer for a slice of the queries.
type ShardedPool struct {
	pools []*Pool
	names []string
	ring  *guardrail.Ring

	skew       SkewPolicy
	skewTracer *trace.Tracer

	// Version bookkeeping: the last snapshot version each shard reported
	// (on replies, stats and commits) and the fleet's current version
	// under the transition-defines-current rule — when a shard is
	// observed moving to a new version, that version becomes current and
	// shards still answering from another one are stale. staleServed
	// counts the stale verdicts each shard served.
	verMu       sync.Mutex
	shardVer    []string
	current     string
	staleServed []uint64

	// commits holds the verdict-cache flushes of the HybridClients over
	// this fleet, run once a Rollout's commit round ends.
	commits commitHooks
}

var _ Transport = (*ShardedPool)(nil)

// ShardedPoolOption configures a ShardedPool.
type ShardedPoolOption func(*shardedPoolConfig)

type shardedPoolConfig struct {
	names      []string
	replicas   int
	skew       SkewPolicy
	skewTracer *trace.Tracer
}

// WithShardNames labels the shards for stats and error messages (default:
// the dial address for DialShardedPool, "shard-i" otherwise). len(names)
// must match the shard count.
func WithShardNames(names []string) ShardedPoolOption {
	return func(c *shardedPoolConfig) { c.names = names }
}

// WithRingReplicas overrides the ring's virtual-node count per shard
// (default guardrail.DefaultRingReplicas).
func WithRingReplicas(n int) ShardedPoolOption {
	return func(c *shardedPoolConfig) { c.replicas = n }
}

// WithSkewPolicy selects how verdicts from version-skewed shards are
// handled (default SkewWarn). Only versioned daemons participate: shards
// reporting no version are never considered skewed.
func WithSkewPolicy(p SkewPolicy) ShardedPoolOption {
	return func(c *shardedPoolConfig) { c.skew = p }
}

// WithSkewTracer captures a notable trace span for every verdict a stale
// shard serves, whatever the skew policy, so operators can see exactly
// which checks crossed the mixed-version window.
func WithSkewTracer(t *trace.Tracer) ShardedPoolOption {
	return func(c *shardedPoolConfig) { c.skewTracer = t }
}

// NewShardedPool builds a sharded transport over caller-built per-shard
// pools. The pool order defines shard indexes: pools[i] serves ring shard
// i, so every client and daemon of one fleet must list shards in the same
// order.
func NewShardedPool(pools []*Pool, opts ...ShardedPoolOption) (*ShardedPool, error) {
	if len(pools) == 0 {
		return nil, errors.New("daemon: sharded pool needs at least one shard")
	}
	var cfg shardedPoolConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.names == nil {
		cfg.names = make([]string, len(pools))
		for i := range pools {
			cfg.names[i] = fmt.Sprintf("shard-%d", i)
		}
	}
	if len(cfg.names) != len(pools) {
		return nil, fmt.Errorf("daemon: %d shard names for %d shards", len(cfg.names), len(pools))
	}
	return &ShardedPool{
		pools:       pools,
		names:       cfg.names,
		ring:        guardrail.NewRing(len(pools), cfg.replicas),
		skew:        cfg.skew,
		skewTracer:  cfg.skewTracer,
		shardVer:    make([]string, len(pools)),
		staleServed: make([]uint64, len(pools)),
	}, nil
}

// DialShardedPool builds a sharded transport over TCP daemons at addrs,
// one Pool per address with the shared per-shard config. Shard i is
// addrs[i]; the same address order must be used fleet-wide.
func DialShardedPool(addrs []string, cfg PoolConfig, opts ...ShardedPoolOption) (*ShardedPool, error) {
	pools := make([]*Pool, len(addrs))
	for i, addr := range addrs {
		pools[i] = DialPool(addr, cfg)
	}
	return NewShardedPool(pools, append([]ShardedPoolOption{WithShardNames(addrs)}, opts...)...)
}

// onCommit registers f to run after each Rollout that reaches its commit
// round.
func (sp *ShardedPool) onCommit(f func()) { sp.commits.add(f) }

// Shards returns the fleet size.
func (sp *ShardedPool) Shards() int { return len(sp.pools) }

// Owner returns the shard index that key routes to.
func (sp *ShardedPool) Owner(key string) int { return sp.ring.Owner(key) }

// observeVersion folds one shard's reported snapshot version into the
// fleet bookkeeping and reports whether the shard is stale. The rule is
// transition-defines-current: a shard observed *changing* versions (a
// commit, or a restart picking up new state) defines the fleet's current
// version; a shard repeating a version that is no longer current is
// stale. A shard's very first report only defines current when none is
// known yet, so the observation order of a settled fleet doesn't matter.
// Unversioned reports (v == "") never participate.
func (sp *ShardedPool) observeVersion(s int, v string) bool {
	if v == "" {
		return false
	}
	sp.verMu.Lock()
	defer sp.verMu.Unlock()
	prev := sp.shardVer[s]
	if prev != v {
		sp.shardVer[s] = v
		if prev != "" || sp.current == "" {
			sp.current = v
			return false
		}
	}
	if v != sp.current {
		sp.staleServed[s]++
		return true
	}
	return false
}

// CurrentVersion returns the fleet's current snapshot version under the
// transition-defines-current rule ("" until any shard reports one).
func (sp *ShardedPool) CurrentVersion() string {
	sp.verMu.Lock()
	defer sp.verMu.Unlock()
	return sp.current
}

// checkSkew applies the skew policy to one shard's reply: observe the
// version it was served from, trace the check when the shard is stale,
// and refuse it under SkewRefuseMixed. The refusal is a healthy-stream
// error — the shard and its connections are fine, only this verdict's
// policy generation is not.
func (sp *ShardedPool) checkSkew(s int, query string, reply *AnalysisReply) error {
	if !sp.observeVersion(s, reply.Version) {
		return nil
	}
	detail := fmt.Sprintf("shard %s served snapshot %s while the fleet's current is %s",
		sp.names[s], reply.Version, sp.CurrentVersion())
	if sp.skewTracer != nil {
		span := sp.skewTracer.StartAlways(query)
		span.SetVersionSkew(detail)
		span.SetVerdict(false, reply.Attack, reply.Profile != nil && reply.Profile.Attack)
		sp.skewTracer.Finish(span)
	}
	if sp.skew == SkewRefuseMixed {
		return fmt.Errorf("%w: %s", ErrVersionSkew, detail)
	}
	return nil
}

// AnalyzeSiteContext implements Transport: the check routes to the shard
// owning its query text and runs on that shard's pool with that shard's
// retries and breaker; the call site rides along so the shard's daemon
// runs the query-skeleton profile stage. Profiled fleets share one
// profile store.
func (sp *ShardedPool) AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error) {
	s := sp.ring.Owner(query)
	reply, err := sp.pools[s].AnalyzeSiteContext(ctx, site, query)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", sp.names[s], err)
	}
	if err := sp.checkSkew(s, query, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// shardHealth snapshots one shard's transport-side health: its breaker
// and its pool's dial/exhaustion counters.
func (sp *ShardedPool) shardHealth(s int) metrics.ShardHealth {
	p := sp.pools[s]
	st := p.BreakerStats()
	h := metrics.ShardHealth{
		Shard:          sp.names[s],
		BreakerState:   st.State,
		BreakerTrips:   st.Trips,
		BreakerRejects: st.Rejects,
		BreakerProbes:  st.Probes,
		Dials:          p.Dials(),
		Exhausted:      p.Exhausted(),
	}
	sp.verMu.Lock()
	h.Version = sp.shardVer[s]
	h.StaleServed = sp.staleServed[s]
	sp.verMu.Unlock()
	return h
}

// ShardStats snapshots every shard's transport-side health. HybridClient
// folds it into Metrics for transports that provide it.
func (sp *ShardedPool) ShardStats() []metrics.ShardHealth {
	out := make([]metrics.ShardHealth, len(sp.pools))
	for s := range sp.pools {
		out[s] = sp.shardHealth(s)
	}
	return out
}

// Stats fetches every reachable shard's counters and merges them into one
// fleet-wide snapshot (counters summed, histograms merged bucket-wise with
// fleet quantiles re-derived), with per-shard transport health in
// Snapshot.Shards. A shard that cannot answer is reported in its
// ShardHealth.Err and excluded from the merge; the call only fails when no
// shard answers.
func (sp *ShardedPool) Stats() (*StatsReply, error) {
	snaps := make([]metrics.Snapshot, 0, len(sp.pools))
	perShard := make([]metrics.ShardHealth, len(sp.pools))
	var errs []error
	for s, p := range sp.pools {
		st, err := p.Stats()
		if err != nil {
			perShard[s] = sp.shardHealth(s)
			perShard[s].Err = err.Error()
			errs = append(errs, fmt.Errorf("shard %s: %w", sp.names[s], err))
			continue
		}
		// A stats fetch is a version observation too, so a fleet that has
		// served no checks since a rollout still reports accurate skew.
		sp.observeVersion(s, st.SnapshotVersion)
		perShard[s] = sp.shardHealth(s)
		snaps = append(snaps, *st)
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("daemon: stats failed on all %d shards: %w", len(sp.pools), errors.Join(errs...))
	}
	merged := metrics.Merge(snaps...)
	merged.Shards = perShard
	return &merged, nil
}

// Traces fetches every reachable shard's trace rings and concatenates
// them, in shard order, with the span counters summed. Unreachable shards
// are skipped; the call only fails when no shard answers.
func (sp *ShardedPool) Traces() (*TracesReply, error) {
	merged := trace.Dump{Recent: []trace.Span{}, Notable: []trace.Span{}}
	var errs []error
	ok := 0
	for s, p := range sp.pools {
		d, err := p.Traces()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %s: %w", sp.names[s], err))
			continue
		}
		ok++
		merged.Started += d.Started
		merged.Finished += d.Finished
		merged.Recent = append(merged.Recent, d.Recent...)
		merged.Notable = append(merged.Notable, d.Notable...)
	}
	if ok == 0 {
		return nil, fmt.Errorf("daemon: traces failed on all %d shards: %w", len(sp.pools), errors.Join(errs...))
	}
	return &merged, nil
}

// ShardRollout is one shard's outcome within a fleet Rollout: its name,
// the terminal state the coordinator saw ("staged", "committed",
// "aborted" or "failed"), the snapshot version it acted on, and the error
// text when it failed.
type ShardRollout struct {
	Shard   string `json:"shard"`
	State   string `json:"state"`
	Version string `json:"version,omitempty"`
	Err     string `json:"err,omitempty"`
}

// RolloutReport is the fleet-wide outcome of one Rollout: the version the
// fleet converged on (empty when the rollout aborted) and every shard's
// terminal state.
type RolloutReport struct {
	Version string         `json:"version,omitempty"`
	Shards  []ShardRollout `json:"shards"`
}

// Rollout coordinates a two-phase fleet-wide snapshot rollout: prepare on
// every shard concurrently, then — only if every shard staged the same
// version — commit on every shard, pinned to that version. Failure
// containment:
//
//   - Any failed prepare, or shards staging different versions, aborts
//     the whole fleet (best-effort, bounded): no shard commits, every
//     healthy shard keeps serving its old snapshot untouched, and the
//     error says so. A fleet never half-commits because one shard's
//     source tree is corrupt.
//   - A failed commit (a shard crashed between prepare and commit) leaves
//     the shards that already committed on the new version — the staged
//     state they swapped in is the whole self-tested generation, so
//     serving it is strictly better than re-aborting a live fleet. The
//     dead shard rebuilds from the same source on restart and converges;
//     re-running Rollout after the restart is a cheap no-op re-converge.
//
// The report always describes every shard, error or not, so callers can
// render exactly which shard did what. Once the commit round ends, the
// verdict cache of every HybridClient over this fleet is flushed.
func (sp *ShardedPool) Rollout(ctx context.Context) (*RolloutReport, error) {
	report := &RolloutReport{Shards: make([]ShardRollout, len(sp.pools))}
	var wg sync.WaitGroup
	for s := range sp.pools {
		report.Shards[s].Shard = sp.names[s]
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r, err := sp.pools[s].Prepare(ctx)
			if err != nil {
				report.Shards[s].State = "failed"
				report.Shards[s].Err = err.Error()
				return
			}
			report.Shards[s].State = r.State
			report.Shards[s].Version = r.Version
		}(s)
	}
	wg.Wait()
	version := report.Shards[0].Version
	var prepErr error
	for s := range report.Shards {
		sh := &report.Shards[s]
		switch {
		case sh.State != "staged":
			prepErr = fmt.Errorf("shard %s prepare failed: %s", sh.Shard, sh.Err)
		case sh.Version != version:
			// Shards staging different versions means their sources have
			// diverged (a half-synced deploy); committing would
			// permanently mix generations, so nothing commits.
			prepErr = fmt.Errorf("staged versions diverge: shard %s staged %q, shard %s staged %q",
				report.Shards[0].Shard, version, sh.Shard, sh.Version)
		}
		if prepErr != nil {
			break
		}
	}
	if prepErr != nil {
		sp.abortAll(report)
		return report, fmt.Errorf("rollout aborted, fleet keeps serving its old snapshot: %w", prepErr)
	}
	report.Version = version
	var failed sync.Map
	for s := range sp.pools {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r, err := sp.pools[s].Commit(ctx, version)
			if err != nil {
				report.Shards[s].State = "failed"
				report.Shards[s].Err = err.Error()
				failed.Store(s, err)
				return
			}
			report.Shards[s].State = r.State
			report.Shards[s].Version = r.Version
			sp.observeVersion(s, r.Version)
		}(s)
	}
	wg.Wait()
	// Even a partial commit moved some shards on: every client's cached
	// verdicts are from the superseded snapshot.
	sp.commits.run()
	var commitErrs []error
	failed.Range(func(s, err any) bool {
		commitErrs = append(commitErrs, fmt.Errorf("shard %s: %w", sp.names[s.(int)], err.(error)))
		return true
	})
	if len(commitErrs) > 0 {
		return report, fmt.Errorf("rollout to %s committed on %d/%d shards (committed shards keep the new snapshot; restart the failed ones and re-run): %w",
			version, len(sp.pools)-len(commitErrs), len(sp.pools), errors.Join(commitErrs...))
	}
	return report, nil
}

// abortAll discards staged state fleet-wide, best effort under a fresh
// bounded context (the rollout's own context may already be dead — that
// can be why prepare failed). Shards that were successfully staged are
// marked aborted in the report; failures to abort are recorded but not
// escalated, since an unreachable shard's staged state dies with its
// process anyway.
func (sp *ShardedPool) abortAll(report *RolloutReport) {
	ctx, cancel := context.WithTimeout(context.Background(), abortTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for s := range sp.pools {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if _, err := sp.pools[s].Abort(ctx); err != nil {
				if report.Shards[s].Err == "" {
					report.Shards[s].Err = "abort: " + err.Error()
				}
				return
			}
			if report.Shards[s].State == "staged" {
				report.Shards[s].State = "aborted"
			}
		}(s)
	}
	wg.Wait()
}

// Close implements Transport: every shard's pool closes; the first error
// is returned.
func (sp *ShardedPool) Close() error {
	var err error
	for _, p := range sp.pools {
		if cerr := p.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
