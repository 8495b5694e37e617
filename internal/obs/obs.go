// Package obs serves the operator-facing observability surface over HTTP:
// Prometheus text-format metrics, Go pprof profiling endpoints, a health
// probe and the decision-trace rings. One obs.Server fronts any component
// that can produce a metrics.Snapshot — the in-process Guard, the PTI
// daemon, the database proxy — so every deployment mode exposes the same
// endpoints:
//
//	/metrics        Prometheus text format (counters, latency and
//	                per-stage histograms)
//	/healthz        liveness probe ("ok")
//	/readyz         readiness probe: 503 until the owner has a committed
//	                analysis snapshot and flips back to 503 before drain
//	                stops accepting (see WithReady)
//	/traces         recent + notable decision traces as JSON
//	/debug/pprof/   the standard Go profiling handlers
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"joza/internal/metrics"
	"joza/internal/trace"
)

// Server is the observability HTTP server. Construct with NewServer,
// start with Start (or mount Handler on an existing mux).
type Server struct {
	snapshot func() metrics.Snapshot
	tracer   *trace.Tracer
	ready    func() bool

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// Option configures a Server.
type Option func(*Server)

// WithReady wires the /readyz probe to ready: the endpoint answers 503
// until ready() reports true. Liveness (/healthz) is unaffected — a
// process that is up but has no committed snapshot, or is draining, is
// alive but not ready. Without this option /readyz always answers ok,
// matching owners that are ready the moment they serve.
func WithReady(ready func() bool) Option {
	return func(s *Server) { s.ready = ready }
}

// NewServer returns a server exporting snapshots from snapshot and traces
// from tracer. tracer may be nil (the /traces endpoint serves an empty
// dump); snapshot must be non-nil and safe for concurrent use.
func NewServer(snapshot func() metrics.Snapshot, tracer *trace.Tracer, opts ...Option) *Server {
	s := &Server{snapshot: snapshot, tracer: tracer}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the endpoint mux, for callers that want to mount the
// observability surface on their own server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (host:port; port 0 picks a free port) and serves
// in the background until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs listen: %w", err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.ln = ln
	s.http = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Safe to call without Start and more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.ln = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready != nil && !s.ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("not ready\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.tracer.Dump())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	WritePrometheus(&b, s.snapshot())
	_, _ = w.Write([]byte(b.String()))
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. It is the one serialization path for every deployment mode: the
// snapshot may come from a local Collector or from the daemon's "stats"
// verb across the wire — the output is identical either way.
func WritePrometheus(b *strings.Builder, s metrics.Snapshot) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	if s.SnapshotVersion != "" && s.SnapshotVersion != "mixed" {
		fmt.Fprintf(b, "# HELP joza_snapshot_version_info Content-derived version of the serving analysis snapshot.\n# TYPE joza_snapshot_version_info gauge\njoza_snapshot_version_info{version=%q} 1\n", s.SnapshotVersion)
	}
	counter("joza_checks_total", "Queries analyzed by the hybrid guard.", s.Checks)
	counter("joza_attacks_total", "Queries flagged as attacks.", s.Attacks)
	counter("joza_nti_attacks_total", "Attacks flagged by negative taint inference.", s.NTIAttacks)
	counter("joza_pti_attacks_total", "Attacks flagged by positive taint inference.", s.PTIAttacks)
	counter("joza_profile_attacks_total", "Attacks flagged by the query-skeleton profile stage.", s.ProfileAttacks)
	if s.ProfileSites+s.ProfileSkeletons > 0 {
		fmt.Fprintf(b, "# HELP joza_profile_sites Call sites in the loaded query-skeleton profile store.\n# TYPE joza_profile_sites gauge\njoza_profile_sites %d\n", s.ProfileSites)
		fmt.Fprintf(b, "# HELP joza_profile_skeletons Query skeletons across all profiled call sites.\n# TYPE joza_profile_skeletons gauge\njoza_profile_skeletons %d\n", s.ProfileSkeletons)
	}
	counter("joza_degraded_checks_total", "Checks served under daemon-outage degradation.", s.DegradedChecks)
	counter("joza_panics_recovered_total", "Analyzer-stage panics recovered into failure-mode verdicts.", s.PanicsRecovered)
	counter("joza_over_budget_checks_total", "Checks that exceeded a cost budget.", s.OverBudgetChecks)
	counter("joza_shed_requests_total", "Requests rejected by admission control.", s.ShedRequests)
	if s.BreakerState != "" && s.BreakerState != "disabled" {
		counter("joza_breaker_trips_total", "Daemon-transport circuit breaker trips.", s.BreakerTrips)
		counter("joza_breaker_rejects_total", "Calls short-circuited by the open breaker.", s.BreakerRejects)
		counter("joza_breaker_probes_total", "Half-open probes admitted by the breaker.", s.BreakerProbes)
		open := 0
		if s.BreakerState != "closed" {
			open = 1
		}
		fmt.Fprintf(b, "# HELP joza_breaker_open Whether the daemon-transport breaker is open or half-open.\n# TYPE joza_breaker_open gauge\njoza_breaker_open %d\n", open)
	}
	counter("joza_nti_matcher_calls_total", "Invocations of the approximate matcher.", s.NTIMatcherCalls)
	counter("joza_nti_matcher_early_exits_total", "Matcher runs abandoned early (threshold band or scan miss).", s.NTIMatcherEarlyExits)
	counter("joza_nti_prefilter_checks_total", "Input-query pairs examined by the NTI prefilter.", s.NTIPrefilterChecks)
	counter("joza_nti_prefilter_rejects_total", "Pairs rejected by the NTI prefilter (trigram screen or window pass) before any matcher ran.", s.NTIPrefilterRejects)

	fmt.Fprintf(b, "# HELP joza_pti_cache_lookups_total PTI cache lookups by outcome.\n# TYPE joza_pti_cache_lookups_total counter\n")
	fmt.Fprintf(b, "joza_pti_cache_lookups_total{outcome=\"query_hit\"} %d\n", s.CacheQueryHits)
	fmt.Fprintf(b, "joza_pti_cache_lookups_total{outcome=\"structure_hit\"} %d\n", s.CacheStructureHits)
	fmt.Fprintf(b, "joza_pti_cache_lookups_total{outcome=\"miss\"} %d\n", s.CacheMisses)
	fmt.Fprintf(b, "# HELP joza_pti_cache_admission_rejects_total Puts a full PTI cache turned away on their key's first sighting, by cache.\n# TYPE joza_pti_cache_admission_rejects_total counter\n")
	for _, c := range []struct {
		name   string
		shards []metrics.CacheShard
	}{{"query", s.CacheShards}, {"structure", s.CacheStructureShards}} {
		var rejected uint64
		for _, sh := range c.shards {
			rejected += sh.Rejected
		}
		fmt.Fprintf(b, "joza_pti_cache_admission_rejects_total{cache=%q} %d\n", c.name, rejected)
	}

	if s.DaemonAnalyzeOps+s.DaemonBatchOps+s.DaemonStatsOps+s.DaemonTracesOps+s.DaemonErrors+s.DaemonTimeouts > 0 {
		fmt.Fprintf(b, "# HELP joza_daemon_ops_total Daemon wire requests by verb.\n# TYPE joza_daemon_ops_total counter\n")
		fmt.Fprintf(b, "joza_daemon_ops_total{op=\"analyze\"} %d\n", s.DaemonAnalyzeOps)
		fmt.Fprintf(b, "joza_daemon_ops_total{op=\"batch\"} %d\n", s.DaemonBatchOps)
		fmt.Fprintf(b, "joza_daemon_ops_total{op=\"stats\"} %d\n", s.DaemonStatsOps)
		fmt.Fprintf(b, "joza_daemon_ops_total{op=\"traces\"} %d\n", s.DaemonTracesOps)
		counter("joza_daemon_batch_items_total", "Analyze items carried inside batch frames.", s.DaemonBatchItems)
		counter("joza_daemon_errors_total", "Daemon protocol errors.", s.DaemonErrors)
		counter("joza_daemon_timeouts_total", "Connections dropped by the read deadline.", s.DaemonTimeouts)
	}

	if len(s.Shards) > 0 {
		fmt.Fprintf(b, "# HELP joza_shard_breaker_open Whether a shard's transport breaker is open or half-open.\n# TYPE joza_shard_breaker_open gauge\n")
		for _, sh := range s.Shards {
			open := 0
			if sh.BreakerState != "" && sh.BreakerState != "closed" && sh.BreakerState != "disabled" {
				open = 1
			}
			fmt.Fprintf(b, "joza_shard_breaker_open{shard=%q} %d\n", sh.Shard, open)
		}
		shardCounter := func(name, help string, get func(metrics.ShardHealth) uint64) {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, sh := range s.Shards {
				fmt.Fprintf(b, "%s{shard=%q} %d\n", name, sh.Shard, get(sh))
			}
		}
		shardCounter("joza_shard_breaker_trips_total", "Breaker trips per shard.",
			func(sh metrics.ShardHealth) uint64 { return sh.BreakerTrips })
		shardCounter("joza_shard_breaker_rejects_total", "Calls short-circuited by a shard's open breaker.",
			func(sh metrics.ShardHealth) uint64 { return sh.BreakerRejects })
		shardCounter("joza_shard_dials_total", "Connections dialed per shard.",
			func(sh metrics.ShardHealth) uint64 { return sh.Dials })
		shardCounter("joza_shard_exhausted_total", "Requests that exhausted reconnection attempts per shard.",
			func(sh metrics.ShardHealth) uint64 { return sh.Exhausted })
		versioned := 0
		for _, sh := range s.Shards {
			if sh.Version != "" {
				versioned++
			}
		}
		if versioned > 0 {
			// Skew counts shards disagreeing with the dominant reported
			// version; 0 means the fleet serves one coherent generation.
			byVer := make(map[string]int)
			for _, sh := range s.Shards {
				if sh.Version != "" {
					byVer[sh.Version]++
				}
			}
			dominant := 0
			for _, n := range byVer {
				if n > dominant {
					dominant = n
				}
			}
			fmt.Fprintf(b, "# HELP joza_shard_snapshot_info Snapshot version last reported by each shard.\n# TYPE joza_shard_snapshot_info gauge\n")
			for _, sh := range s.Shards {
				if sh.Version != "" {
					fmt.Fprintf(b, "joza_shard_snapshot_info{shard=%q,version=%q} 1\n", sh.Shard, sh.Version)
				}
			}
			fmt.Fprintf(b, "# HELP joza_shard_version_skew Shards whose reported snapshot version differs from the fleet's dominant one.\n# TYPE joza_shard_version_skew gauge\njoza_shard_version_skew %d\n", versioned-dominant)
			shardCounter("joza_shard_stale_served_total", "Verdicts served by a shard while its version lagged the fleet's current one.",
				func(sh metrics.ShardHealth) uint64 { return sh.StaleServed })
		}
	}

	emitted := make(map[string]bool)
	writeHistogram(b, emitted, "joza_check_duration_seconds",
		"Hybrid check latency (sampled).", s.LatencyBuckets, s.LatencyCount, s.LatencySumNs, "")
	for _, st := range s.Stages {
		writeHistogram(b, emitted, "joza_stage_duration_seconds",
			"Per-stage durations of traced checks.", st.Buckets, st.Count, st.SumNs,
			fmt.Sprintf("stage=%q", st.Stage))
	}
}

// writeHistogram renders one histogram in Prometheus text format, with
// cumulative buckets and seconds units. labels is an optional extra label
// pair rendered inside the braces (e.g. `stage="lex"`); emitted tracks
// metric families whose HELP/TYPE header is already out, since labelled
// series share one family header.
func writeHistogram(b *strings.Builder, emitted map[string]bool, name, help string, buckets []metrics.Bucket, count uint64, sumNs int64, labels string) {
	if !emitted[name] {
		emitted[name] = true
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].LeNs < buckets[j].LeNs })
	var cum uint64
	for _, bk := range buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%g\"} %d\n",
			name, labels, sep, float64(bk.LeNs)/1e9, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	if labels != "" {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, float64(sumNs)/1e9)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, count)
	} else {
		fmt.Fprintf(b, "%s_sum %g\n", name, float64(sumNs)/1e9)
		fmt.Fprintf(b, "%s_count %d\n", name, count)
	}
}
