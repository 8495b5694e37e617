package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"joza/internal/daemon"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/sqlparse"
)

// Protection is one measured configuration: a PTI transport (nil for the
// unprotected baseline), an optional NTI analyzer, client-side caches and
// a label.
type Protection struct {
	Name string
	// Transport carries PTI analysis; nil disables PTI.
	Transport daemon.Transport
	// NTI is the in-application analyzer; nil disables NTI.
	NTI *nti.Analyzer
	// cache is the application-side PTI verdict cache. Per Section IV-C
	// the query cache lives with the application, so a hit skips the
	// daemon round trip entirely.
	cache *clientCache
	// spawner, when set, creates (and tears down) a fresh daemon per
	// request — the paper's unoptimized deployment.
	spawner func() (daemon.Transport, func())
}

// Close releases the protection's transport.
func (p *Protection) Close() {
	if p != nil && p.Transport != nil {
		_ = p.Transport.Close()
	}
}

// clientCache is the application-side safe-verdict cache: an exact-query
// map plus an optional structure-key map. Only safe verdicts are stored.
type clientCache struct {
	mu        sync.Mutex
	cap       int
	queries   map[string]bool
	structure map[string]bool // nil when structure caching is off
}

func newClientCache(mode pti.CacheMode, capacity int) *clientCache {
	if mode == pti.CacheNone || mode == 0 {
		return nil
	}
	c := &clientCache{cap: capacity, queries: make(map[string]bool, capacity)}
	if mode == pti.CacheQueryAndStructure {
		c.structure = make(map[string]bool, capacity)
	}
	return c
}

// lookup reports whether the query has a cached safe verdict.
func (c *clientCache) lookup(query string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queries[query] {
		return true
	}
	if c.structure != nil && c.structure[sqlparse.StructureKey(query)] {
		c.queries[query] = true
		return true
	}
	return false
}

// store records a safe verdict.
func (c *clientCache) store(query string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queries) < c.cap {
		c.queries[query] = true
	}
	if c.structure != nil && len(c.structure) < c.cap {
		c.structure[sqlparse.StructureKey(query)] = true
	}
}

// PTIVariant selects how the PTI analyzer and its deployment are built.
// The paper's optimized daemon is the zero value plus Remote and a cache
// mode: per-fragment scan matching with a 64-entry MRU and parse-first
// (Aho–Corasick is this reproduction's own ablation, exercised in the
// benchmarks).
type PTIVariant struct {
	// AhoCorasick switches from the paper's per-fragment scan to the AC
	// automaton (ablation).
	AhoCorasick bool
	// NoParseFirst disables the parse-first optimization.
	NoParseFirst bool
	// NoMRU disables the MRU fragment cache.
	NoMRU bool
	// Cache selects the application-side cache mode.
	Cache pti.CacheMode
	// Remote routes analysis through an in-memory pipe daemon instead of
	// a direct in-process call (the "extension estimate").
	Remote bool
	// SpawnPerRequest launches a fresh daemon for every request, the
	// paper's initial unoptimized implementation ("initiated a new
	// process"); implies Remote.
	SpawnPerRequest bool
}

// buildAnalyzer constructs the PTI analyzer for a variant. Caching happens
// client-side, so the analyzer itself is uncached.
func (v PTIVariant) buildAnalyzer(site *Site) *pti.Cached {
	var opts []pti.Option
	if !v.AhoCorasick {
		opts = append(opts, pti.WithNaiveMatcher())
	}
	if v.NoParseFirst {
		opts = append(opts, pti.WithoutParseFirst())
	}
	if !v.NoMRU {
		opts = append(opts, pti.WithMRU(64))
	}
	return pti.NewCached(pti.New(site.Fragments, opts...), pti.CacheNone, 1)
}

// NewProtection assembles a measured configuration. stop must be called
// when done (it shuts down a pipe daemon when Remote is set).
func NewProtection(name string, site *Site, v PTIVariant, withNTI bool) (prot *Protection, stop func()) {
	analyzer := v.buildAnalyzer(site)
	var transport daemon.Transport
	stop = func() {}
	switch {
	case v.SpawnPerRequest:
		// Each request spawns a daemon over a fresh pipe and tears it
		// down afterwards; RunRequests drives the lifecycle via
		// perRequestSpawner.
		transport = nil
	case v.Remote:
		client, s := daemon.SpawnPipe(analyzer)
		transport = client
		stop = s
	default:
		transport = daemon.NewDirect(analyzer)
	}
	p := &Protection{
		Name:      name,
		Transport: transport,
		cache:     newClientCache(v.Cache, 16384),
	}
	if v.SpawnPerRequest {
		p.spawner = func() (daemon.Transport, func()) {
			c, s := daemon.SpawnPipe(analyzer)
			return c, s
		}
	}
	if withNTI {
		p.NTI = nti.MustNew()
	}
	return p, stop
}

// Timing aggregates the cost of a measured run, broken down by component
// (the Figure 7/8 decomposition).
type Timing struct {
	Requests int
	Queries  int
	// Total is wall time across all requests.
	Total time.Duration
	// DB is time spent executing statements.
	DB time.Duration
	// Render is simulated application (template/interpreter) time.
	Render time.Duration
	// PTI is time spent in PTI analysis, including cache lookups and IPC
	// for remote transports.
	PTI time.Duration
	// NTI is time spent in NTI analysis.
	NTI time.Duration
	// CacheHits counts queries answered from the client-side cache.
	CacheHits int
}

// PerRequest returns the mean request time.
func (t Timing) PerRequest() time.Duration {
	if t.Requests == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Requests)
}

// OverheadPercent returns (protected − plain)/plain in percent.
func OverheadPercent(protected, plain Timing) float64 {
	b := plain.PerRequest().Seconds()
	if b == 0 {
		return 0
	}
	return (protected.PerRequest().Seconds() - b) / b * 100
}

// Mix is a read/write workload mix.
type Mix struct {
	// WriteFraction is the proportion of write requests (0..1); the rest
	// are reads.
	WriteFraction float64
}

// kindAt deterministically interleaves writes at the configured fraction.
func (m Mix) kindAt(i int) RequestKind {
	if m.WriteFraction <= 0 {
		return Read
	}
	period := int(1 / m.WriteFraction)
	if period < 1 {
		period = 1
	}
	if i%period == 0 {
		return Write
	}
	return Read
}

// renderSink defeats dead-code elimination of the simulated render work.
var renderSink uint64

// simulateRender models the application work of one request (PHP template
// rendering and interpretation), which dominates real request cost — the
// paper's plain read request takes ~0.22s on its testbed. Without it the
// in-memory database substrate would make every request nearly free and
// relative overheads meaningless.
func simulateRender(iters int) time.Duration {
	start := time.Now()
	x := renderSink | 1
	for i := 0; i < iters; i++ {
		x = x*1103515245 + 12345
	}
	renderSink = x
	return time.Since(start)
}

// RunRequests executes pre-generated requests under a protection (nil
// protection = plain) and returns the timing breakdown.
func RunRequests(site *Site, reqs []*Request, prot *Protection) (Timing, error) {
	var tm Timing
	start := time.Now()
	for _, req := range reqs {
		tm.Requests++
		transport := daemon.Transport(nil)
		requestStop := func() {}
		if prot != nil {
			transport = prot.Transport
			if prot.spawner != nil {
				t0 := time.Now()
				transport, requestStop = prot.spawner()
				tm.PTI += time.Since(t0) // daemon spawn is PTI-side cost
			}
		}
		for _, ev := range req.Events {
			tm.Queries++
			if prot != nil && transport != nil {
				t0 := time.Now()
				if prot.cache.lookup(ev.Query) {
					tm.CacheHits++
				} else {
					reply, err := transport.AnalyzeSiteContext(context.Background(), "", ev.Query)
					if err != nil {
						requestStop()
						return tm, fmt.Errorf("pti: %w", err)
					}
					if reply.Attack {
						return tm, fmt.Errorf("benign workload flagged: %q", ev.Query)
					}
					prot.cache.store(ev.Query)
				}
				tm.PTI += time.Since(t0)
				if prot.NTI != nil {
					// The paper's NTI reuses the daemon's token stream
					// (Section IV-D). Replies here carry none, so NTI lexes
					// for itself, and only when an input matches the query.
					t1 := time.Now()
					res := prot.NTI.Analyze(ev.Query, nil, ev.Inputs)
					tm.NTI += time.Since(t1)
					if res.Attack {
						return tm, fmt.Errorf("benign workload flagged by NTI: %q", ev.Query)
					}
				}
			} else if prot != nil && prot.NTI != nil {
				t1 := time.Now()
				res := prot.NTI.Analyze(ev.Query, nil, ev.Inputs)
				tm.NTI += time.Since(t1)
				if res.Attack {
					return tm, fmt.Errorf("benign workload flagged by NTI: %q", ev.Query)
				}
			}
			t2 := time.Now()
			if _, err := site.DB.Exec(ev.Query); err != nil {
				requestStop()
				return tm, fmt.Errorf("db: %w", err)
			}
			tm.DB += time.Since(t2)
		}
		requestStop()
		tm.Render += simulateRender(site.RenderIters)
	}
	tm.Total = time.Since(start)
	return tm, nil
}

// GenerateRequests produces n requests of a fixed kind.
func (s *Site) GenerateRequests(kind RequestKind, n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = s.NextRequest(kind)
	}
	return out
}

// GenerateMix produces n requests following the mix.
func (s *Site) GenerateMix(mix Mix, n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = s.NextRequest(mix.kindAt(i + 1))
	}
	return out
}
