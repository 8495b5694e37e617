// Package metrics provides the lock-free counter set and latency
// histogram behind joza.Metrics. It is a leaf package: the Guard, the PTI
// daemon and the benchmark commands all record into a Collector and
// publish Snapshot values, so one snapshot type travels unchanged from
// Guard.Check to the daemon wire protocol to command-line output.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// numBuckets covers latencies from 1ns to ~34s in power-of-two buckets;
// everything slower lands in the last bucket.
const numBuckets = 36

// Histogram is a fixed-size power-of-two bucket histogram of durations,
// in the spirit of HDR histograms: constant memory, lock-free recording,
// quantiles read by walking the buckets. The zero value is ready for use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(d)) - 1
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket holding the q-th observation. Zero
// observations yield zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(uint64(1) << uint(i+1))
		}
	}
	return time.Duration(uint64(1) << numBuckets)
}

// Mean returns the mean observed duration (zero when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Sum returns the summed observed duration in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one occupied histogram bucket: the count of observations at
// or below the upper bound LeNs (non-cumulative; exporters that need
// Prometheus-style cumulative buckets sum as they walk).
type Bucket struct {
	LeNs  int64  `json:"leNs"`
	Count uint64 `json:"count"`
}

// Buckets returns the occupied buckets in ascending bound order. Empty
// buckets are elided so snapshots marshal compactly.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, Bucket{LeNs: int64(uint64(1) << uint(i+1)), Count: n})
		}
	}
	return out
}

// Stage identifies one timed phase of the hybrid check pipeline.
type Stage int

// Pipeline stages with dedicated histograms.
const (
	// StageLex is SQL lexing (skipped entirely on a PTI query-cache hit).
	StageLex Stage = iota
	// StagePTICover is PTI fragment-cover analysis on a cache miss.
	StagePTICover
	// StageNTIMatch is the summed per-input approximate matching.
	StageNTIMatch
	// StageNTIPrefilter is the prefilter portion of NTI matching
	// (trigram bitmap build, per-input trigram counting and window pass).
	StageNTIPrefilter
	// StageProfile is the query-skeleton profile stage (normalization plus
	// the per-call-site lookup).
	StageProfile
	numStages
)

// StageName returns the stable label used in snapshots and exports.
func StageName(s Stage) string {
	switch s {
	case StageLex:
		return "lex"
	case StagePTICover:
		return "pti_cover"
	case StageNTIMatch:
		return "nti_match"
	case StageNTIPrefilter:
		return "nti_prefilter"
	case StageProfile:
		return "profile"
	default:
		return "unknown"
	}
}

// Collector accumulates check counters and latencies. It is safe for
// concurrent use and designed to be shared: a Manager hands one Collector
// to every Guard it rebuilds so counters survive fragment-set swaps.
type Collector struct {
	checks         atomic.Uint64
	attacks        atomic.Uint64
	ntiAttacks     atomic.Uint64
	ptiAttacks     atomic.Uint64
	profileAttacks atomic.Uint64
	degraded       atomic.Uint64
	panics         atomic.Uint64
	overBudget     atomic.Uint64
	shed           atomic.Uint64
	latency        Histogram
	stages         [numStages]Histogram
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// sampleEvery is the latency sampling stride for SampleLatency callers:
// reading the clock twice per check costs more than the rest of a cached
// check on some hosts, so sub-microsecond hot paths time one check in 16.
// Quantiles over the sample are statistically the same; the first check is
// always sampled so short runs still report latencies.
const sampleEvery = 16

// SampleLatency reports whether the caller should time this check. Callers
// on µs-scale hot paths bracket the check with a clock read only when it
// returns true and pass a negative duration to RecordCheck otherwise;
// callers whose per-request cost dwarfs the clock just time every request.
// The stride reads the recorded-check count, which RecordCheck advances
// anyway, so sampling costs a load and no read-modify-write; checks
// running at once may share a count and so a decision.
func (c *Collector) SampleLatency() bool {
	return c.checks.Load()%sampleEvery == 0
}

// RecordCheck records one completed check, attributing the attack bit per
// analyzer (profileAttack is the query-skeleton profile stage's vote,
// always false in two-stage pipelines). A negative duration means the
// latency was not sampled for this check and only the counters move.
func (c *Collector) RecordCheck(ntiAttack, ptiAttack, profileAttack bool, d time.Duration) {
	c.checks.Add(1)
	if ntiAttack || ptiAttack || profileAttack {
		c.attacks.Add(1)
	}
	if ntiAttack {
		c.ntiAttacks.Add(1)
	}
	if ptiAttack {
		c.ptiAttacks.Add(1)
	}
	if profileAttack {
		c.profileAttacks.Add(1)
	}
	if d >= 0 {
		c.latency.Observe(d)
	}
}

// RecordDegraded counts one check that could not reach the PTI daemon and
// fell back to the transport's degradation policy (NTI-only fail-open or
// a synthesized fail-closed attack verdict). Callers pair it with
// RecordCheck for the verdict they ultimately served.
func (c *Collector) RecordDegraded() { c.degraded.Add(1) }

// RecordPanic counts one analyzer-stage panic that the engine recovered
// and converted into a failure-mode verdict.
func (c *Collector) RecordPanic() { c.panics.Add(1) }

// RecordOverBudget counts one check that exceeded a configured cost budget
// (query/input bytes, DP cells, tokens) and was resolved by the failure
// mode instead of finishing its analysis. Counted separately from
// timeouts: a budget bounds work, a deadline bounds wall time.
func (c *Collector) RecordOverBudget() { c.overBudget.Add(1) }

// RecordShed counts one request rejected by admission control before any
// analysis ran. Shed requests never reach RecordCheck.
func (c *Collector) RecordShed() { c.shed.Add(1) }

// ObserveStage records one stage duration. Stage durations come from
// decision tracing: only traced checks time their stages, so these
// histograms describe the sampled population (the check-latency histogram
// keeps its own, independent sampling).
func (c *Collector) ObserveStage(s Stage, d time.Duration) {
	if s < 0 || s >= numStages {
		return
	}
	c.stages[s].Observe(d)
}

// ObserveStageDurations records the stage timings a finished trace span
// carries: zero values mean the stage did not run (a cache hit skips both
// lex and cover) and are not observed.
func (c *Collector) ObserveStageDurations(lexNs, ptiCoverNs, ntiMatchNs, ntiPrefilterNs, profileNs int64) {
	if lexNs > 0 {
		c.stages[StageLex].Observe(time.Duration(lexNs))
	}
	if ptiCoverNs > 0 {
		c.stages[StagePTICover].Observe(time.Duration(ptiCoverNs))
	}
	if ntiMatchNs > 0 {
		c.stages[StageNTIMatch].Observe(time.Duration(ntiMatchNs))
	}
	if ntiPrefilterNs > 0 {
		c.stages[StageNTIPrefilter].Observe(time.Duration(ntiPrefilterNs))
	}
	if profileNs > 0 {
		c.stages[StageProfile].Observe(time.Duration(profileNs))
	}
}

// Snapshot returns the collector's counters. Cache and matcher fields are
// zero; the owner (Guard, daemon server) fills them from its analyzers.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Checks:           c.checks.Load(),
		Attacks:          c.attacks.Load(),
		NTIAttacks:       c.ntiAttacks.Load(),
		PTIAttacks:       c.ptiAttacks.Load(),
		ProfileAttacks:   c.profileAttacks.Load(),
		DegradedChecks:   c.degraded.Load(),
		PanicsRecovered:  c.panics.Load(),
		OverBudgetChecks: c.overBudget.Load(),
		ShedRequests:     c.shed.Load(),
		LatencyP50Ns:     int64(c.latency.Quantile(0.50)),
		LatencyP99Ns:     int64(c.latency.Quantile(0.99)),
		LatencyMeanNs:    int64(c.latency.Mean()),
		LatencyCount:     c.latency.Count(),
		LatencySumNs:     c.latency.Sum(),
		LatencyBuckets:   c.latency.Buckets(),
	}
	for st := Stage(0); st < numStages; st++ {
		h := &c.stages[st]
		if h.Count() == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageLatency{
			Stage:   StageName(st),
			Count:   h.Count(),
			P50Ns:   int64(h.Quantile(0.50)),
			P99Ns:   int64(h.Quantile(0.99)),
			MeanNs:  int64(h.Mean()),
			SumNs:   h.Sum(),
			Buckets: h.Buckets(),
		})
	}
	return s
}

// ShardHealth is the client-side view of one shard of a daemon fleet:
// which keyspace member it is, how its circuit breaker stands, and how
// much transport churn it has caused. A dead shard shows an open breaker
// and growing exhausted counts while its siblings stay closed — the
// per-shard degradation story rendered in /metrics.
type ShardHealth struct {
	// Shard names the fleet member (its dial address, or "shard-i" for
	// custom dialers).
	Shard string `json:"shard"`
	// BreakerState is "closed", "open", "half-open" or "disabled".
	BreakerState   string `json:"breakerState"`
	BreakerTrips   uint64 `json:"breakerTrips,omitempty"`
	BreakerRejects uint64 `json:"breakerRejects,omitempty"`
	BreakerProbes  uint64 `json:"breakerProbes,omitempty"`
	// Dials and Exhausted are the shard pool's connection churn: dials
	// above the pool size mean replacements, exhausted counts requests
	// that ran out of reconnection attempts.
	Dials     uint64 `json:"dials,omitempty"`
	Exhausted uint64 `json:"exhausted,omitempty"`
	// Version is the snapshot version the shard most recently reported on a
	// reply or stats fetch (empty for unversioned shards). During a rollout
	// the fleet briefly shows mixed versions here; StaleServed counts
	// verdicts this shard served while its version differed from the
	// fleet's current one.
	Version     string `json:"version,omitempty"`
	StaleServed uint64 `json:"staleServed,omitempty"`
	// Err notes a shard that could not answer a fleet-wide control fetch
	// (its counters are excluded from the merged snapshot).
	Err string `json:"err,omitempty"`
}

// CacheShard is the activity of one cache shard.
type CacheShard struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries uint64 `json:"entries"`
	// Rejected counts the puts the full shard turned away on their key's
	// first sighting.
	Rejected uint64 `json:"rejected"`
}

// StageLatency is the snapshot of one pipeline stage's histogram. Stage
// timings are recorded for traced checks (see Collector.ObserveStage), so
// Count is the traced population, not total checks.
type StageLatency struct {
	Stage   string   `json:"stage"`
	Count   uint64   `json:"count"`
	P50Ns   int64    `json:"p50Ns"`
	P99Ns   int64    `json:"p99Ns"`
	MeanNs  int64    `json:"meanNs"`
	SumNs   int64    `json:"sumNs"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is one point-in-time reading of a guard's (or daemon's)
// counters. It marshals to stable JSON and is the payload of the daemon
// protocol's "stats" verb.
type Snapshot struct {
	// Checks counts analyzed queries; Attacks counts blocked ones,
	// attributed per analyzer (a query both flag counts in both).
	Checks     uint64 `json:"checks"`
	Attacks    uint64 `json:"attacks"`
	NTIAttacks uint64 `json:"ntiAttacks"`
	PTIAttacks uint64 `json:"ptiAttacks"`
	// ProfileAttacks counts queries the query-skeleton profile stage
	// flagged (unseen skeleton for the call site); zero in two-stage
	// pipelines. ProfileSites and ProfileSkeletons describe the loaded
	// profile store, filled by the owner.
	ProfileAttacks   uint64 `json:"profileAttacks,omitempty"`
	ProfileSites     uint64 `json:"profileSites,omitempty"`
	ProfileSkeletons uint64 `json:"profileSkeletons,omitempty"`

	// SnapshotVersion is the content-derived version of the analysis
	// snapshot serving checks (empty for unversioned owners). A merged
	// fleet snapshot carries the sole version when all shards agree and
	// the sentinel "mixed" while a rollout is in flight.
	SnapshotVersion string `json:"snapshotVersion,omitempty"`

	// DegradedChecks counts checks served without a PTI verdict because
	// the daemon transport was unavailable: the remote HybridClient fell
	// back to its degradation policy (fail-open NTI-only or fail-closed
	// synthetic attack). Always zero for in-process Guards.
	DegradedChecks uint64 `json:"degradedChecks"`

	// Containment-layer counters. PanicsRecovered counts analyzer-stage
	// panics the engine recovered into failure-mode verdicts;
	// OverBudgetChecks counts checks that blew a cost budget (distinct
	// from timeouts); ShedRequests counts requests rejected by admission
	// control before analysis.
	PanicsRecovered  uint64 `json:"panicsRecovered,omitempty"`
	OverBudgetChecks uint64 `json:"overBudgetChecks,omitempty"`
	ShedRequests     uint64 `json:"shedRequests,omitempty"`

	// Circuit-breaker activity on the daemon transport's client side,
	// filled by the owner from its Pool: the breaker's current state,
	// closed→open trips (including failed half-open probes), calls
	// rejected while open, and half-open probes admitted.
	BreakerState   string `json:"breakerState,omitempty"`
	BreakerTrips   uint64 `json:"breakerTrips,omitempty"`
	BreakerRejects uint64 `json:"breakerRejects,omitempty"`
	BreakerProbes  uint64 `json:"breakerProbes,omitempty"`

	// NTI approximate-matcher activity: total invocations of the
	// quadratic matcher, how many were abandoned early (threshold band
	// exhausted, bit-parallel scan miss or a candidate range narrower
	// than the query), and prefilter traffic — pairs checked and pairs
	// the trigram screen or the window pass rejected before any matcher
	// ran.
	NTIMatcherCalls      uint64 `json:"ntiMatcherCalls"`
	NTIMatcherEarlyExits uint64 `json:"ntiMatcherEarlyExits"`
	NTIPrefilterChecks   uint64 `json:"ntiPrefilterChecks"`
	NTIPrefilterRejects  uint64 `json:"ntiPrefilterRejects"`

	// Daemon server activity, filled by the daemon's Stats: requests by
	// verb, protocol errors (unknown verbs, replies that failed to
	// encode), and connections dropped by the per-connection read
	// deadline. Zero when the owner is not serving the wire protocol.
	DaemonAnalyzeOps uint64 `json:"daemonAnalyzeOps,omitempty"`
	DaemonStatsOps   uint64 `json:"daemonStatsOps,omitempty"`
	DaemonTracesOps  uint64 `json:"daemonTracesOps,omitempty"`
	DaemonErrors     uint64 `json:"daemonErrors,omitempty"`
	DaemonTimeouts   uint64 `json:"daemonTimeouts,omitempty"`

	// Batched-wire activity: "batch" frames served and the items they
	// carried (each item also counts in DaemonAnalyzeOps, so the analyze
	// counter stays the per-check rate whatever the framing).
	DaemonBatchOps   uint64 `json:"daemonBatchOps,omitempty"`
	DaemonBatchItems uint64 `json:"daemonBatchItems,omitempty"`

	// Shards describes a sharded daemon fleet from the client's point of
	// view: one entry per shard with its transport health. Filled by the
	// owner from its ShardedPool; empty for single-daemon deployments.
	Shards []ShardHealth `json:"shards,omitempty"`

	// PTI cache totals and the per-shard breakdowns of the query and the
	// structure cache.
	CacheQueryHits       uint64       `json:"cacheQueryHits"`
	CacheStructureHits   uint64       `json:"cacheStructureHits"`
	CacheMisses          uint64       `json:"cacheMisses"`
	CacheShards          []CacheShard `json:"cacheShards,omitempty"`
	CacheStructureShards []CacheShard `json:"cacheStructureShards,omitempty"`

	// Check latency, bucket-quantized upper bounds in nanoseconds, plus
	// the raw bucket counts so exporters (Prometheus text format) can
	// rebuild the full histogram from any snapshot — local or one that
	// crossed the daemon wire.
	LatencyP50Ns   int64    `json:"latencyP50Ns"`
	LatencyP99Ns   int64    `json:"latencyP99Ns"`
	LatencyMeanNs  int64    `json:"latencyMeanNs"`
	LatencyCount   uint64   `json:"latencyCount,omitempty"`
	LatencySumNs   int64    `json:"latencySumNs,omitempty"`
	LatencyBuckets []Bucket `json:"latencyBuckets,omitempty"`

	// Stages holds per-stage histograms (lex, PTI fragment cover, NTI
	// approximate match) for traced checks. Empty when tracing is off.
	Stages []StageLatency `json:"stages,omitempty"`
}

// Merge folds several snapshots — one per shard of a daemon fleet — into
// a fleet-wide view: counters sum, histograms merge bucket-by-bucket with
// quantiles re-derived from the merged buckets, per-stage histograms merge
// by stage name, and per-daemon cache shards concatenate. Breaker and
// Shards fields are left empty: they describe one transport's view and the
// caller (a ShardedPool) reports them per shard instead.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	latency := newBucketMerge()
	stageOrder := []string{}
	stages := map[string]*stageMerge{}
	for _, s := range snaps {
		switch {
		case s.SnapshotVersion == "":
		case out.SnapshotVersion == "":
			out.SnapshotVersion = s.SnapshotVersion
		case out.SnapshotVersion != s.SnapshotVersion:
			out.SnapshotVersion = "mixed"
		}
		out.Checks += s.Checks
		out.Attacks += s.Attacks
		out.NTIAttacks += s.NTIAttacks
		out.PTIAttacks += s.PTIAttacks
		out.ProfileAttacks += s.ProfileAttacks
		out.ProfileSites += s.ProfileSites
		out.ProfileSkeletons += s.ProfileSkeletons
		out.DegradedChecks += s.DegradedChecks
		out.PanicsRecovered += s.PanicsRecovered
		out.OverBudgetChecks += s.OverBudgetChecks
		out.ShedRequests += s.ShedRequests
		out.NTIMatcherCalls += s.NTIMatcherCalls
		out.NTIMatcherEarlyExits += s.NTIMatcherEarlyExits
		out.NTIPrefilterChecks += s.NTIPrefilterChecks
		out.NTIPrefilterRejects += s.NTIPrefilterRejects
		out.DaemonAnalyzeOps += s.DaemonAnalyzeOps
		out.DaemonBatchOps += s.DaemonBatchOps
		out.DaemonBatchItems += s.DaemonBatchItems
		out.DaemonStatsOps += s.DaemonStatsOps
		out.DaemonTracesOps += s.DaemonTracesOps
		out.DaemonErrors += s.DaemonErrors
		out.DaemonTimeouts += s.DaemonTimeouts
		out.CacheQueryHits += s.CacheQueryHits
		out.CacheStructureHits += s.CacheStructureHits
		out.CacheMisses += s.CacheMisses
		out.CacheShards = append(out.CacheShards, s.CacheShards...)
		out.CacheStructureShards = append(out.CacheStructureShards, s.CacheStructureShards...)
		latency.add(s.LatencyBuckets, s.LatencyCount, s.LatencySumNs)
		for _, st := range s.Stages {
			sm, ok := stages[st.Stage]
			if !ok {
				sm = &stageMerge{bucketMerge: newBucketMerge()}
				stages[st.Stage] = sm
				stageOrder = append(stageOrder, st.Stage)
			}
			sm.add(st.Buckets, st.Count, st.SumNs)
		}
	}
	out.LatencyCount = latency.count
	out.LatencySumNs = latency.sum
	out.LatencyBuckets = latency.buckets()
	out.LatencyP50Ns = latency.quantile(0.50)
	out.LatencyP99Ns = latency.quantile(0.99)
	if latency.count > 0 {
		out.LatencyMeanNs = latency.sum / int64(latency.count)
	}
	for _, name := range stageOrder {
		sm := stages[name]
		st := StageLatency{
			Stage:   name,
			Count:   sm.count,
			P50Ns:   sm.quantile(0.50),
			P99Ns:   sm.quantile(0.99),
			SumNs:   sm.sum,
			Buckets: sm.buckets(),
		}
		if sm.count > 0 {
			st.MeanNs = sm.sum / int64(sm.count)
		}
		out.Stages = append(out.Stages, st)
	}
	return out
}

// bucketMerge accumulates histogram buckets from several snapshots keyed
// by their upper bound.
type bucketMerge struct {
	byLe  map[int64]uint64
	count uint64
	sum   int64
}

type stageMerge struct{ bucketMerge }

func newBucketMerge() bucketMerge {
	return bucketMerge{byLe: make(map[int64]uint64)}
}

func (m *bucketMerge) add(bs []Bucket, count uint64, sum int64) {
	for _, b := range bs {
		m.byLe[b.LeNs] += b.Count
	}
	m.count += count
	m.sum += sum
}

func (m *bucketMerge) buckets() []Bucket {
	if len(m.byLe) == 0 {
		return nil
	}
	out := make([]Bucket, 0, len(m.byLe))
	for le, n := range m.byLe {
		out = append(out, Bucket{LeNs: le, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LeNs < out[j].LeNs })
	return out
}

// quantile estimates the q-quantile from the merged buckets, with the same
// upper-bound semantics as Histogram.Quantile.
func (m *bucketMerge) quantile(q float64) int64 {
	var total uint64
	for _, n := range m.byLe {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for _, b := range m.buckets() {
		seen += b.Count
		if seen >= rank {
			return b.LeNs
		}
	}
	return 0
}

// Format renders the snapshot for terminal output.
func (s Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checks %d, attacks %d (NTI %d, PTI %d)\n",
		s.Checks, s.Attacks, s.NTIAttacks, s.PTIAttacks)
	if s.ProfileAttacks+s.ProfileSites+s.ProfileSkeletons > 0 {
		fmt.Fprintf(&b, "profiles: %d sites, %d skeletons, %d attacks\n",
			s.ProfileSites, s.ProfileSkeletons, s.ProfileAttacks)
	}
	if s.DegradedChecks > 0 {
		fmt.Fprintf(&b, "degraded checks (daemon unreachable): %d\n", s.DegradedChecks)
	}
	if s.PanicsRecovered+s.OverBudgetChecks+s.ShedRequests > 0 {
		fmt.Fprintf(&b, "containment: %d panics recovered, %d over budget, %d shed\n",
			s.PanicsRecovered, s.OverBudgetChecks, s.ShedRequests)
	}
	if s.BreakerState != "" && s.BreakerState != "disabled" {
		fmt.Fprintf(&b, "breaker %s: %d trips, %d rejects, %d probes\n",
			s.BreakerState, s.BreakerTrips, s.BreakerRejects, s.BreakerProbes)
	}
	if s.DaemonAnalyzeOps+s.DaemonBatchOps+s.DaemonStatsOps+s.DaemonTracesOps+s.DaemonErrors+s.DaemonTimeouts > 0 {
		fmt.Fprintf(&b, "daemon ops: %d analyze, %d batch (%d items), %d stats, %d traces, %d errors, %d timeouts\n",
			s.DaemonAnalyzeOps, s.DaemonBatchOps, s.DaemonBatchItems,
			s.DaemonStatsOps, s.DaemonTracesOps, s.DaemonErrors, s.DaemonTimeouts)
	}
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "shard %s: breaker %s (%d trips, %d rejects), %d dials, %d exhausted",
			sh.Shard, sh.BreakerState, sh.BreakerTrips, sh.BreakerRejects, sh.Dials, sh.Exhausted)
		if sh.Err != "" {
			fmt.Fprintf(&b, ", unreachable: %s", sh.Err)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "latency p50 %v, p99 %v, mean %v\n",
		time.Duration(s.LatencyP50Ns), time.Duration(s.LatencyP99Ns), time.Duration(s.LatencyMeanNs))
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "stage %-9s %d traced, p50 %v, p99 %v, mean %v\n",
			st.Stage+":", st.Count,
			time.Duration(st.P50Ns), time.Duration(st.P99Ns), time.Duration(st.MeanNs))
	}
	fmt.Fprintf(&b, "pti cache: %d query hits, %d structure hits, %d misses\n",
		s.CacheQueryHits, s.CacheStructureHits, s.CacheMisses)
	if len(s.CacheShards) > 0 {
		fmt.Fprintf(&b, "query-cache shards (%d):", len(s.CacheShards))
		for _, sh := range s.CacheShards {
			fmt.Fprintf(&b, " %d/%d(%d)", sh.Hits, sh.Hits+sh.Misses, sh.Entries)
		}
		b.WriteString(" hit/lookups(entries)\n")
	}
	fmt.Fprintf(&b, "nti matcher: %d calls, %d early exits\n",
		s.NTIMatcherCalls, s.NTIMatcherEarlyExits)
	if s.NTIPrefilterChecks > 0 {
		fmt.Fprintf(&b, "nti prefilter: %d checks, %d rejects\n",
			s.NTIPrefilterChecks, s.NTIPrefilterRejects)
	}
	return b.String()
}
