package joza

// Remote-deployment surface: the PTI daemon transports live in
// internal/daemon, so applications outside this module reach them through
// these re-exports. The deployment mirrors Figure 5 of the paper: a
// jozad process holds the fragment set and serves PTI analysis; the
// application runs NTI in process, lexing the query itself, and blocks a
// query iff either analyzer flags it.

import (
	"io"

	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/nti"
	"joza/internal/trace"
)

type (
	// DaemonTransport is the application's view of the PTI analysis,
	// independent of deployment (single connection, pool, or in-process).
	DaemonTransport = daemon.Transport
	// DaemonClient is the Remote transport over a single connection.
	DaemonClient = daemon.Client
	// DaemonPool is the production Remote transport: a fixed-size
	// connection pool with per-request deadlines and jittered-backoff
	// reconnection.
	DaemonPool = daemon.Pool
	// DaemonPoolConfig tunes a DaemonPool (size, timeout, backoff).
	DaemonPoolConfig = daemon.PoolConfig
	// DegradeMode selects fail-open/fail-closed behaviour when the
	// daemon is unreachable.
	DegradeMode = daemon.DegradeMode
	// RemoteGuard is the application-side hybrid over a transport: PTI
	// via the daemon, NTI in process, one verdict.
	RemoteGuard = daemon.HybridClient
	// RemoteGuardOption configures a RemoteGuard.
	RemoteGuardOption = daemon.HybridOption
	// AnalysisReply is the daemon's answer for one query.
	AnalysisReply = daemon.AnalysisReply
	// BatchResult is one query's outcome inside an AnalyzeBatch call:
	// either a reply or a per-item error, while siblings stand alone.
	BatchResult = daemon.BatchResult
	// DaemonShardedPool consistent-hash-routes checks across a fleet of
	// jozad daemons, with a per-shard breaker so one dead shard degrades
	// only its own keyspace.
	DaemonShardedPool = daemon.ShardedPool
	// DaemonShardOption configures a DaemonShardedPool (names, ring
	// replicas, skew policy).
	DaemonShardOption = daemon.ShardedPoolOption
	// TraceConfig tunes decision tracing (sample rate, ring size, slow
	// threshold) for a RemoteGuard; the in-process Guard configures the
	// same knobs through ObservabilityConfig.
	TraceConfig = trace.Config
	// SkewPolicy selects how a DaemonShardedPool treats verdicts served
	// by a shard whose snapshot version lags the fleet (rollout windows).
	SkewPolicy = daemon.SkewPolicy
	// RolloutReport describes a fleet-wide two-phase snapshot rollout:
	// the converged version plus every shard's terminal state.
	RolloutReport = daemon.RolloutReport
	// ShardRollout is one shard's outcome within a RolloutReport.
	ShardRollout = daemon.ShardRollout
)

// Both SQL front doors answer the same Checker.
var (
	_ Checker = (*Guard)(nil)
	_ Checker = (*RemoteGuard)(nil)
)

// Skew policies for mixed-version rollout windows, re-exported.
const (
	// SkewWarn serves stale verdicts but counts and (optionally) traces
	// them — availability over coherence (default).
	SkewWarn = daemon.SkewWarn
	// SkewRefuseMixed refuses verdicts from stale shards per check (per
	// item in batches) with ErrVersionSkew on the healthy stream.
	SkewRefuseMixed = daemon.SkewRefuseMixed
)

// ErrVersionSkew wraps refusals issued under SkewRefuseMixed.
var ErrVersionSkew = daemon.ErrVersionSkew

// Degradation policies for daemon outages, re-exported. Fail-open keeps
// NTI active — the hybrid's other half still screens every input.
const (
	// DegradeError propagates transport errors to the caller (default).
	DegradeError = daemon.DegradeError
	// DegradeFailClosed treats daemon outage as an attack.
	DegradeFailClosed = daemon.DegradeFailClosed
	// DegradeFailOpen serves NTI-only verdicts during the outage.
	DegradeFailOpen = daemon.DegradeFailOpen
)

// DialDaemon connects one client to a PTI daemon at a TCP address (the
// paper's single-pipe mode; use DialDaemonPool for concurrent traffic).
func DialDaemon(addr string) (*DaemonClient, error) { return daemon.Dial(addr) }

// DialDaemonPool returns a connection pool to a PTI daemon at a TCP
// address. Dialing is lazy: the pool can be built before the daemon is
// up, and a daemon restart heals on the next request.
func DialDaemonPool(addr string, cfg DaemonPoolConfig) *DaemonPool {
	return daemon.DialPool(addr, cfg)
}

// DialDaemonShardedPool opens one connection pool per fleet address and
// consistent-hash-routes checks across them by query text. Every daemon
// of the fleet serves the whole fragment corpus.
func DialDaemonShardedPool(addrs []string, cfg DaemonPoolConfig, opts ...DaemonShardOption) (*DaemonShardedPool, error) {
	return daemon.DialShardedPool(addrs, cfg, opts...)
}

// WithDaemonShardNames labels the shards of a DaemonShardedPool in stats
// and error messages (default: the dialed addresses).
func WithDaemonShardNames(names []string) DaemonShardOption {
	return daemon.WithShardNames(names)
}

// WithDaemonSkewPolicy sets how the fleet client treats verdicts from
// version-skewed shards (default SkewWarn). Coordinate fleet upgrades
// with DaemonShardedPool.Rollout to keep the skew window to the width of
// one commit round.
func WithDaemonSkewPolicy(p SkewPolicy) DaemonShardOption {
	return daemon.WithSkewPolicy(p)
}

// NewRemoteGuard builds the application-side hybrid over a daemon
// transport with the default NTI analyzer and terminate policy; options
// adjust the degradation mode, policy, metrics collector and audit log.
func NewRemoteGuard(transport DaemonTransport, opts ...RemoteGuardOption) *RemoteGuard {
	return daemon.NewHybridClient(transport, nti.MustNew(), core.PolicyTerminate, opts...)
}

// WithRemoteDegradeMode sets what a RemoteGuard does when the daemon is
// unreachable (default DegradeError).
func WithRemoteDegradeMode(m DegradeMode) RemoteGuardOption {
	return daemon.WithDegradeMode(m)
}

// WithRemoteAuditLog makes the RemoteGuard write one AuditRecord JSON
// line per blocked query to w, exactly as the in-process Guard does.
func WithRemoteAuditLog(w io.Writer) RemoteGuardOption {
	return daemon.WithAuditLog(w)
}

// WithRemotePolicy sets the recovery policy used by RemoteGuard.Authorize.
func WithRemotePolicy(p Policy) RemoteGuardOption {
	return daemon.WithPolicy(p)
}

// WithoutRemoteNTI disables the in-process NTI component (PTI-only
// remote deployments).
func WithoutRemoteNTI() RemoteGuardOption {
	return daemon.WithoutNTI()
}

// WithRemoteTracing samples RemoteGuard checks into decision traces,
// readable via RemoteGuard.Traces. Daemon-side trace summaries riding on
// analyze replies are merged in, so one trace spans both processes.
func WithRemoteTracing(cfg TraceConfig) RemoteGuardOption {
	return daemon.WithTracing(cfg)
}

// WithRemoteStrictProfiles escalates a daemon profile verdict of
// "site-unknown" (a call site with no training profile) to an attack.
// Only meaningful for checks whose Request carries a Site, against a daemon serving profiles (jozad -profiles).
func WithRemoteStrictProfiles() RemoteGuardOption {
	return daemon.WithStrictProfiles()
}
