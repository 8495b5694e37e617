// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches measure the cost of the experiment machinery; the
// experiment *results* (the actual table contents) are printed by
// cmd/wpsqlilab and cmd/jozabench and asserted by the package tests.
package joza_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joza"
	"joza/internal/audit"
	"joza/internal/daemon"
	"joza/internal/evasion"
	"joza/internal/fragments"
	"joza/internal/minidb"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
	"joza/internal/strdist"
	"joza/internal/testbed"
	"joza/internal/webapp"
	"joza/internal/workload"
)

var (
	labOnce sync.Once
	labInst *testbed.Lab
	labErr  error
)

func benchLab(b *testing.B) *testbed.Lab {
	b.Helper()
	labOnce.Do(func() {
		labInst, labErr = testbed.NewLab()
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return labInst
}

var (
	siteOnce sync.Once
	siteInst *workload.Site
	siteErr  error
)

func benchSite(b *testing.B) *workload.Site {
	b.Helper()
	siteOnce.Do(func() {
		siteInst, siteErr = workload.NewSite(300, 7)
		if siteInst != nil {
			// Benchmarks measure analysis cost, not the simulated PHP
			// rendering.
			siteInst.RenderIters = 0
		}
	})
	if siteErr != nil {
		b.Fatal(siteErr)
	}
	return siteInst
}

// ---------------------------------------------------------------------------
// Security evaluation (Tables I–IV, Figure 6).

func BenchmarkTable1Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counts := testbed.TypeCounts(testbed.Specs())
		if len(counts) != 4 {
			b.Fatal("bad classification")
		}
	}
}

func BenchmarkTable2Baseline(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lab.EvaluateBaseline(10)
		if err != nil {
			b.Fatal(err)
		}
		if res.PTIDetected != res.Total {
			b.Fatal("unexpected baseline result")
		}
	}
}

func BenchmarkTable4Hybrid(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes, err := lab.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		if len(outcomes) != 50 {
			b.Fatal("unexpected outcome count")
		}
	}
}

func BenchmarkFigure6Forms(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.EvaluateFigure6("eventify"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Performance evaluation (Tables V–VII, Figures 7–8).

func BenchmarkTable5CacheConfigs(b *testing.B) {
	site := benchSite(b)
	configs := []struct {
		name    string
		variant workload.PTIVariant
	}{
		{"no-cache", workload.PTIVariant{Cache: pti.CacheNone, Remote: true}},
		{"query-cache", workload.PTIVariant{Cache: pti.CacheQuery, Remote: true}},
		{"query+structure", workload.PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}},
		{"extension-estimate", workload.PTIVariant{Cache: pti.CacheQueryAndStructure}},
	}
	for _, kind := range []workload.RequestKind{workload.Read, workload.Write} {
		for _, cfg := range configs {
			b.Run(fmt.Sprintf("%s/%s", kind, cfg.name), func(b *testing.B) {
				prot, stop := workload.NewProtection(cfg.name, site, cfg.variant, true)
				defer stop()
				reqs := site.GenerateRequests(kind, 50)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := site.Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := workload.RunRequests(site, reqs, prot); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTable6WorkloadMix(b *testing.B) {
	site := benchSite(b)
	for _, w := range []float64{0.50, 0.10, 0.05, 0.01} {
		b.Run(fmt.Sprintf("writes=%.0f%%", w*100), func(b *testing.B) {
			prot, stop := workload.NewProtection("joza", site,
				workload.PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}, true)
			defer stop()
			reqs := site.GenerateMix(workload.Mix{WriteFraction: w}, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := site.Reset(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := workload.RunRequests(site, reqs, prot); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable7Prediction(b *testing.B) {
	stats := workload.DefaultWordPressStats()
	for i := 0; i < b.N; i++ {
		if stats.PredictOverhead(4.0, 12.0) <= 0 {
			b.Fatal("bad prediction")
		}
	}
}

func BenchmarkFigure7PTIBreakdown(b *testing.B) {
	site := benchSite(b)
	variants := []struct {
		name    string
		variant workload.PTIVariant
	}{
		{"unoptimized", workload.PTIVariant{
			NoParseFirst: true, NoMRU: true, Cache: pti.CacheNone, Remote: true,
		}},
		{"optimized-daemon", workload.PTIVariant{
			Cache: pti.CacheQueryAndStructure, Remote: true,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			prot, stop := workload.NewProtection(v.name, site, v.variant, false)
			defer stop()
			reqs := site.GenerateRequests(workload.Read, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := site.Reset(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := workload.RunRequests(site, reqs, prot); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure8ReadWriteSearch(b *testing.B) {
	site := benchSite(b)
	for _, kind := range []workload.RequestKind{workload.Read, workload.Write, workload.Search} {
		for _, protected := range []bool{false, true} {
			name := fmt.Sprintf("%s/plain", kind)
			if protected {
				name = fmt.Sprintf("%s/joza", kind)
			}
			b.Run(name, func(b *testing.B) {
				var prot *workload.Protection
				stop := func() {}
				if protected {
					prot, stop = workload.NewProtection("joza", site,
						workload.PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}, true)
				}
				defer stop()
				reqs := site.GenerateRequests(kind, 50)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := site.Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := workload.RunRequests(site, reqs, prot); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Section 5).

const (
	benchQuery = "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC LIMIT 10"
	// benchSafeQuery is fully covered by the bench site's fragments, so
	// PTI-verdict benches exercise the "benign" fast path.
	benchSafeQuery = "SELECT id, title, body FROM posts WHERE id=42"
)

func BenchmarkAblationFragmentMatchers(b *testing.B) {
	site := benchSite(b)
	matchers := map[string]fragments.Matcher{
		"naive-scan":   fragments.NewNaiveMatcher(site.Fragments),
		"aho-corasick": fragments.NewACMatcher(site.Fragments),
	}
	for name, m := range matchers {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.FindAll(benchQuery)
			}
		})
	}
}

func BenchmarkAblationParseFirst(b *testing.B) {
	site := benchSite(b)
	analyzers := map[string]*pti.Analyzer{
		"parse-first":  pti.New(site.Fragments),
		"full-marking": pti.New(site.Fragments, pti.WithoutParseFirst()),
	}
	toks := sqltoken.Lex(benchSafeQuery)
	for name, a := range analyzers {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if a.Analyze(benchSafeQuery, toks).Attack {
					b.Fatal("benign flagged")
				}
			}
		})
	}
}

// BenchmarkPTICover times the uncached parse-first cover over the lab's
// fragments: the work of a PTI cache miss, which every lab attack is.
func BenchmarkPTICover(b *testing.B) {
	lab := benchLab(b)
	a := pti.New(lab.Fragments)
	type lexed struct {
		query string
		toks  []sqltoken.Token
	}
	var benign, attack []lexed
	for _, s := range lab.Specs {
		for _, p := range []struct {
			payload string
			into    *[]lexed
		}{{s.Benign, &benign}, {s.Exploit, &attack}} {
			// The value reaches the query as the plugin sees it.
			v := webapp.MagicQuotes(webapp.TrimWhitespace(s.TransportValue(p.payload)))
			q := s.BuildQuery(v)
			*p.into = append(*p.into, lexed{q, sqltoken.Lex(q)})
		}
	}
	for _, set := range []struct {
		name    string
		queries []lexed
	}{{"benign", benign}, {"attack", attack}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := set.queries[i%len(set.queries)]
				a.Analyze(q.query, q.toks)
			}
		})
	}
}

// BenchmarkAblationNTIMatchers times the approximate matchers per pair
// shape at NTI's default threshold: naive (the textbook baseline, on the
// verbatim pair only — it is far too slow for the others), sellers (the
// threshold-banded DP behind nti.WithSellersMatcher) and bitparallel (the
// default engine). The threshold engines also report cells/op, the DP
// cells they charge against their budget.
//
//   - verbatim: the input occurs in the query. NTI's exact fast path
//     settles this before any matcher runs; it stays as the paper's
//     ablation shape.
//   - near-miss: a lab quote-stuffing evasion (84 bytes) inside its
//     magic-quoted query, the pair lab-attack's matcher calls are made of.
//     It is not found: its ratio is 0.226.
//   - comment: a 240-byte comment with apostrophes inside its
//     magic-quoted INSERT, a multi-word input that is found.
func BenchmarkAblationNTIMatchers(b *testing.B) {
	verbatim := "security update notes for the morning release"
	evade := evasion.QuoteStuffing("-1 UNION SELECT username, password FROM users", nti.DefaultThreshold)
	comment := strings.Repeat("it's a blog update, isn't it? ", 8)
	pairs := []struct{ name, input, query string }{
		{"verbatim", verbatim, "SELECT id, title FROM posts WHERE title LIKE '%" + verbatim + "%' LIMIT 10"},
		{"near-miss", evade, "SELECT id, name FROM events WHERE id=" + webapp.MagicQuotes(evade)},
		{"comment", comment, "INSERT INTO comments (post_id, author, body) VALUES (7, 'lorem', '" + webapp.MagicQuotes(comment) + "')"},
	}
	engines := []struct {
		name  string
		match func(ctx context.Context, input, query string, threshold float64, maxCells int) (strdist.Match, bool, bool, error)
	}{
		{"sellers", strdist.SubstringMatchThresholdBudgetCtx},
		{"bitparallel", strdist.BitParallelThresholdBudgetCtx},
	}
	ctx := context.Background()
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			if p.name == "verbatim" {
				b.Run("naive", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						strdist.NaiveSubstringMatch(p.input, p.query)
					}
				})
			}
			for _, e := range engines {
				b.Run(e.name, func(b *testing.B) {
					run := func(maxCells int) error {
						_, _, _, err := e.match(ctx, p.input, p.query, nti.DefaultThreshold, maxCells)
						return err
					}
					cells := dpCells(run)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(0); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(cells), "cells/op")
				})
			}
		})
	}
}

// dpCells returns the smallest DP-cell budget under which run completes:
// the cells the matcher charges for its pair.
func dpCells(run func(maxCells int) error) int {
	hi := 1
	for run(hi) != nil {
		hi *= 2
	}
	lo := hi/2 + 1
	for lo < hi {
		if mid := (lo + hi) / 2; run(mid) == nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// BenchmarkAblationNTIPrefilter times whole NTI checks per request shape.
// The inputs=N rows run 1, 10 and 50 input fields against one content
// query, one check per op. The wp-comment rows run a wp-write comment
// post's fields (p, author and a 40-word comment of about 300 bytes)
// against the options, post and count queries of its request, and the
// wp-search rows a search term against the options query: the short
// absent inputs the partition filter rejects, one op per request. sellers
// is the banded engine without the prefilter, the configuration that
// predates both optimizations; default is the prefilter (partition
// filter, trigram screen and window pass) plus the bit-parallel engine.
// The default rows also report reject-%, the share of input×query pairs
// the prefilter rejected before any matcher ran.
func BenchmarkAblationNTIPrefilter(b *testing.B) {
	engines := []struct {
		name string
		opts []nti.Option
	}{
		{"sellers", []nti.Option{nti.WithSellersMatcher(), nti.WithoutPrefilter()}},
		{"default", nil},
	}
	run := func(name string, ops [][]workload.QueryEvent) {
		for _, e := range engines {
			b.Run(name+"/"+e.name, func(b *testing.B) {
				a := nti.New(e.opts...)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, ev := range ops[i%len(ops)] {
						if res := a.Analyze(ev.Query, nil, ev.Inputs); res.Attack {
							b.Fatalf("benign inputs flagged: %+v", res.Reasons)
						}
					}
				}
				if st := a.Stats(); st.PrefilterChecks > 0 {
					b.ReportMetric(100*float64(st.PrefilterRejects)/float64(st.PrefilterChecks), "reject-%")
				}
			})
		}
	}
	for _, shape := range []int{1, 10, 50} {
		rng := rand.New(rand.NewSource(42 + int64(shape)))
		ops := make([][]workload.QueryEvent, 256)
		for i := range ops {
			ops[i] = []workload.QueryEvent{{Query: ntiBenchQuery, Inputs: ntiBenchInputs(rng, shape)}}
		}
		run(fmt.Sprintf("inputs=%d", shape), ops)
	}
	site, err := workload.NewSite(300, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		kind workload.RequestKind
		// keep selects the request's queries the row analyzes.
		keep func(query string) bool
	}{
		{"wp-comment", workload.Write, func(q string) bool { return !strings.HasPrefix(q, "INSERT") }},
		{"wp-search", workload.Search, func(q string) bool { return strings.HasPrefix(q, "SELECT name, value FROM options") }},
	} {
		ops := make([][]workload.QueryEvent, 256)
		for i := range ops {
			for _, ev := range site.NextRequest(shape.kind).Events {
				if shape.keep(ev.Query) {
					ops[i] = append(ops[i], ev)
				}
			}
		}
		run(shape.name, ops)
	}
}

// ntiBenchQuery is a representative content query. One input per
// multi-field check occurs in it verbatim (the slug); the rest are benign
// fields the prefilter should reject as cheaply as possible.
const ntiBenchQuery = "SELECT p.id, p.title, p.body, u.display_name FROM posts p " +
	"JOIN users u ON u.id = p.author_id WHERE p.status = 'publish' " +
	"AND p.slug = 'spring-garden-checklist' ORDER BY p.created_at DESC LIMIT 10"

// ntiBenignValues are realistic form values that do not occur in
// ntiBenchQuery.
var ntiBenignValues = []string{
	"spring garden checklist ideas",
	"jane.doe@example.org",
	"4fa83b1c-9d02-4e31-8f5a-2c7d90e11b42",
	"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36",
	"1717171717",
	"How do I reset my password?",
	"+1 (555) 013-7799",
	"742 Evergreen Terrace, Springfield",
	"session=9f8e7d6c5b4a;theme=dark;lang=en-US",
	"the quick brown fox jumps over the lazy dog",
}

// ntiBenchInputs builds the input list for one check of the given shape.
func ntiBenchInputs(rng *rand.Rand, shape int) []nti.Input {
	if shape == 1 {
		// A single benign field, so the 1-input shape times the matcher
		// rather than the exact fast path the slug would take.
		return []nti.Input{{Source: "get", Name: "q",
			Value: fmt.Sprintf("%s %05d", ntiBenignValues[rng.Intn(len(ntiBenignValues))], rng.Intn(100000))}}
	}
	inputs := make([]nti.Input, shape)
	// One field legitimately reaches the query (the slug): the exact fast
	// path handles it under every engine.
	inputs[0] = nti.Input{Source: "get", Name: "slug", Value: "spring-garden-checklist"}
	for i := 1; i < shape; i++ {
		v := ntiBenignValues[rng.Intn(len(ntiBenignValues))]
		// Vary most values so checks do not dedup into a handful of
		// groups: a real form posts distinct field contents.
		if i%3 != 0 {
			v = fmt.Sprintf("%s %05d", v, rng.Intn(100000))
		}
		inputs[i] = nti.Input{Source: "post", Name: fmt.Sprintf("f%d", i), Value: v}
	}
	return inputs
}

func BenchmarkAblationTransports(b *testing.B) {
	site := benchSite(b)
	analyzer := pti.NewCached(pti.New(site.Fragments), pti.CacheNone, 1)
	b.Run("direct", func(b *testing.B) {
		tr := daemon.NewDirect(analyzer)
		for i := 0; i < b.N; i++ {
			if _, err := tr.AnalyzeSiteContext(context.Background(), "", benchQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	run := func(b *testing.B, tr daemon.Transport) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.AnalyzeSiteContext(context.Background(), "", benchQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pipe-daemon", func(b *testing.B) {
		tr, stop := daemon.SpawnPipe(analyzer)
		defer stop()
		b.ResetTimer()
		run(b, tr)
	})
	// tcp-single and tcp-pool drive a loopback TCP daemon from concurrent
	// callers (transportCallers per GOMAXPROCS): a pool of one connection
	// serializes every round trip on it, a pool of transportCallers
	// connections runs that many side by side.
	const transportCallers = 8
	runParallel := func(b *testing.B, tr daemon.Transport) {
		b.SetParallelism(transportCallers)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := tr.AnalyzeSiteContext(context.Background(), "", benchQuery); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	addr := startTCPDaemon(b, analyzer)
	b.Run("tcp-single", func(b *testing.B) {
		tr := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
		defer tr.Close()
		runParallel(b, tr)
	})
	b.Run("tcp-pool", func(b *testing.B) {
		tr := daemon.DialPool(addr, daemon.PoolConfig{Size: transportCallers})
		defer tr.Close()
		runParallel(b, tr)
	})
}

// BenchmarkHybridClient measures one RemoteGuard check over SpawnPipe's
// one-pipe pool. cached repeats a few benign queries, so every timed
// check is answered by the client's verdict cache and NTI alone; wire
// sends a distinct query per iteration, so every check pays the round
// trip to the daemon, whose own PTI cache answers it from the structure
// key.
func BenchmarkHybridClient(b *testing.B) {
	analyzer := pti.NewCached(pti.New(fragments.NewSet([]string{"SELECT * FROM records WHERE ID=", " LIMIT 5"})), pti.CacheQueryAndStructure, 4096)
	inputs := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	// run checks warm once each (dialing the pool), then queries.
	run := func(b *testing.B, warm, queries []string) {
		pool, stop := daemon.SpawnPipe(analyzer)
		defer stop()
		g := joza.NewRemoteGuard(pool)
		ctx := context.Background()
		for _, q := range warm {
			if _, err := g.Check(ctx, joza.Request{Query: q, Inputs: inputs}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := g.Check(ctx, joza.Request{Query: queries[i%len(queries)], Inputs: inputs})
			if err != nil || v.Attack {
				b.Fatalf("benign check: %+v, %v", v, err)
			}
		}
		b.StopTimer()
		m := g.Metrics()
		b.ReportMetric(float64(m.ClientCacheHits)/float64(m.ClientCacheHits+m.ClientCacheMisses), "hit-frac")
	}
	b.Run("cached", func(b *testing.B) {
		queries := make([]string, 8)
		for i := range queries {
			queries[i] = fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
		}
		run(b, queries, queries)
	})
	b.Run("wire", func(b *testing.B) {
		queries := make([]string, b.N+1)
		for i := range queries {
			queries[i] = fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", 1000+i)
		}
		run(b, queries[:1], queries[1:])
	})
}

// startTCPDaemon serves analyzer on a loopback TCP port until b's
// cleanup and returns the address.
func startTCPDaemon(b *testing.B, analyzer *pti.Cached) string {
	b.Helper()
	srv := daemon.NewServer(analyzer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	b.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// benchMixQueries flattens the Table VI mix (4% writes) into a query
// stream.
func benchMixQueries(site *workload.Site) []string {
	var queries []string
	for _, req := range site.GenerateMix(workload.Mix{WriteFraction: 0.04}, 400) {
		for _, ev := range req.Events {
			queries = append(queries, ev.Query)
		}
	}
	return queries
}

// BenchmarkDaemonBatch sends the Table VI mix to a loopback TCP daemon
// over one pooled connection from batch=N concurrent callers, with the
// pool's micro-batcher coalescing up to N checks per wire frame (a
// BatchSize below 2, the batch=1 row, leaves it off: one caller, one
// frame per check). The fixed frame cost (encode, syscall pair, decode,
// scheduler handoff) spreads over the batch, so ns/check falls as the
// batch grows. Each row drives b.N checks rounded up to a whole number of
// batches, so no partial last batch waits out the batcher's linger, and
// reports ns/check over the checks it drove.
func BenchmarkDaemonBatch(b *testing.B) {
	site := benchSite(b)
	queries := benchMixQueries(site)
	addr := startTCPDaemon(b, pti.NewCached(pti.New(site.Fragments), pti.CacheQueryAndStructure, 8192))
	for _, size := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			p := daemon.DialPool(addr, daemon.PoolConfig{Size: 1, BatchSize: size})
			defer p.Close()
			if err := driveChecks(p, size, int64(len(queries)), queries); err != nil { // warm the cache and the connection
				b.Fatal(err)
			}
			checks := (b.N + size - 1) / size * size
			b.ResetTimer()
			if err := driveChecks(p, size, int64(checks), queries); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(checks), "ns/check")
		})
	}
}

// driveChecks runs n checks of the benign queries through tr, shared
// among that many concurrent callers, and returns the first failure.
func driveChecks(tr daemon.Transport, callers int, n int64, queries []string) error {
	var next atomic.Int64
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				reply, err := tr.AnalyzeSiteContext(context.Background(), "", queries[i%int64(len(queries))])
				if err == nil && reply.Attack {
					err = fmt.Errorf("benign query flagged: %+v", reply.Reasons)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// BenchmarkShardScaleOut grows a fleet of loopback daemons from 1 to 4
// shards behind one ShardedPool. Each shard keeps a budget of 2
// connections, and every frame is delayed by a simulated 3 ms network
// round trip. Co-located shards share this machine's CPU, so loopback
// throughput alone says nothing about fleet scaling; with the delay,
// throughput is bounded by in-flight capacity (shards × connections),
// which is what another jozad adds. 64 callers keep every connection busy.
func BenchmarkShardScaleOut(b *testing.B) {
	const (
		rtt        = 3 * time.Millisecond
		shardConns = 2
		callers    = 64
	)
	site := benchSite(b)
	queries := benchMixQueries(site)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pools := make([]*daemon.Pool, shards)
			for i := range pools {
				addr := startTCPDaemon(b, pti.NewCached(pti.New(site.Fragments), pti.CacheQueryAndStructure, 8192))
				pools[i] = daemon.NewPool(func() (net.Conn, error) {
					conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
					if err != nil {
						return nil, err
					}
					return &delayConn{Conn: conn, rtt: rtt}, nil
				}, daemon.PoolConfig{Size: shardConns, Timeout: 30 * time.Second})
			}
			// A dense ring (1024 vnodes per shard) splits the keyspace
			// within a few percent of fair; with the default 128 the
			// hottest of 2 shards can own ~60% of it, and its connection
			// budget caps the whole fleet.
			sp, err := daemon.NewShardedPool(pools, daemon.WithRingReplicas(1024))
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			if err := driveChecks(sp, callers, callers*4, queries); err != nil { // dial every connection, warm the caches
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := driveChecks(sp, callers, int64(b.N), queries); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "q/s")
		})
	}
}

// delayConn simulates network distance: each Write stalls for rtt before
// delivering, so one frame exchange costs one round trip however many
// checks it carries. Blocked time is not CPU, so a shared-core machine
// still shows the in-flight-capacity scaling a real fleet has.
type delayConn struct {
	net.Conn
	rtt time.Duration
}

func (c *delayConn) Write(p []byte) (int, error) {
	time.Sleep(c.rtt)
	return c.Conn.Write(p)
}

func BenchmarkAblationCacheModes(b *testing.B) {
	site := benchSite(b)
	for _, mode := range []pti.CacheMode{pti.CacheNone, pti.CacheQuery, pti.CacheQueryAndStructure} {
		b.Run(mode.String(), func(b *testing.B) {
			c := pti.NewCached(pti.New(site.Fragments), mode, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Analyze(benchSafeQuery, nil).Attack {
					b.Fatal("benign flagged")
				}
			}
		})
	}
}

func BenchmarkAblationThresholdSweep(b *testing.B) {
	inputs := []nti.Input{
		{Source: "get", Name: "id", Value: "42"},
		{Source: "post", Name: "comment", Value: "lorem ipsum dolor amet security notes"},
	}
	for _, th := range []float64{0.05, 0.10, 0.20, 0.30, 0.50} {
		b.Run(fmt.Sprintf("threshold=%.2f", th), func(b *testing.B) {
			a := nti.MustNew(nti.WithThreshold(th))
			for i := 0; i < b.N; i++ {
				a.Analyze(benchQuery, nil, inputs)
			}
		})
	}
}

func BenchmarkAblationTaintless(b *testing.B) {
	lab := benchLab(b)
	tl := evasion.NewTaintless(lab.Fragments)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Evade("-1 UNION SELECT username, password FROM users")
	}
}

// ---------------------------------------------------------------------------
// Core micro-benchmarks.

// BenchmarkGuardCheck measures one warm in-process check of a benign
// query whose input occurs in it. "unsited" names no call site, so the profile stage never runs; "sited"
// adds a trained profile and a Site, so a warm check runs PTI from the
// query cache, the profile stage from the entry's skeleton memo, and NTI
// over an input matching only digits: all three without a lex.
func BenchmarkGuardCheck(b *testing.B) {
	const site = "plugin:records"
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	inputs := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	rec := joza.NewProfileRecorder()
	rec.Record(site, q)
	for _, bc := range []struct {
		name string
		site string
		opts []joza.Option
	}{
		{"unsited", "", nil},
		{"sited", site, []joza.Option{joza.WithProfileStore(rec.Store())}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			guard, err := joza.New(append([]joza.Option{joza.WithFragments(joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`))}, bc.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			req := joza.Request{Site: bc.site, Query: q, Inputs: inputs}
			// Warm the query cache and, on the first hit, the memo.
			for i := 0; i < 2; i++ {
				_, _ = guard.Check(context.Background(), req)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, _ := guard.Check(context.Background(), req); v.Attack {
					b.Fatal("benign flagged")
				}
			}
		})
	}
}

// BenchmarkGuardCheckParallel measures the Check hot path under
// concurrency: a cached WordPress-like workload (64 distinct cached
// queries, benign inputs) driven from all procs at once. This is the
// scenario the sharded PTI cache, lazy lexing and pooled matcher rows
// target; the seed's single-mutex cache serialized every goroutine here.
func BenchmarkGuardCheckParallel(b *testing.B) {
	guard, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";
$q2 = "SELECT option_name, option_value FROM wp_options WHERE autoload='yes'";
$q3 = "SELECT * FROM wp_posts WHERE post_status='publish' ORDER BY post_date DESC LIMIT 10";`)))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
	}
	inputs := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	// Warm the query cache so the steady state is the cache-hit path.
	for _, q := range queries {
		_, _ = guard.Check(context.Background(), joza.Request{Query: q, Inputs: inputs})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i&63]
			i++
			if v, _ := guard.Check(context.Background(), joza.Request{Query: q, Inputs: inputs}); v.Attack {
				b.Fatal("benign flagged")
			}
		}
	})
	b.StopTimer()
	if guard.Metrics().Checks == 0 {
		b.Fatal("metrics recorded no checks")
	}
}

// BenchmarkGuardCheckParallelPTIOnly isolates the pure cache-hit path: no
// NTI inputs, warm query cache. This is the path the lazy lexing and the
// sharded cache rewrote — the seed lexed every query even on a cache hit
// and serialized all goroutines on one cache mutex; now a hit is a sharded
// map lookup with zero allocations.
func BenchmarkGuardCheckParallelPTIOnly(b *testing.B) {
	guard, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`)))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
	}
	for _, q := range queries {
		_, _ = guard.Check(context.Background(), joza.Request{Query: q})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i&63]
			i++
			if v, _ := guard.Check(context.Background(), joza.Request{Query: q}); v.Attack {
				b.Fatal("benign flagged")
			}
		}
	})
}

// BenchmarkAuditLog measures the evidence cost of one blocked query: the
// audit line for an attack verdict, encoded and written to io.Discard.
// "first" is the first lab spec's exploit (NTI and PTI reasons, an input
// key); "heaviest" is the lab-attack corpus record with the most reasons,
// under trained profiles: many PTI reasons plus a profile "unseen" one.
func BenchmarkAuditLog(b *testing.B) {
	lab := benchLab(b)
	guard, err := joza.New(joza.WithFragmentSet(lab.Fragments))
	if err != nil {
		b.Fatal(err)
	}
	s := lab.Specs[0]
	inputs := []joza.Input{{Source: "get", Name: s.Param, Value: s.Exploit}}
	v, err := guard.Check(context.Background(), joza.Request{Query: s.BuildQuery(s.Exploit), Inputs: inputs})
	if err != nil || !v.NTI.Attack || !v.PTI.Attack {
		b.Fatalf("lab attack verdict lacks NTI and PTI evidence: %+v, %v", v, err)
	}
	b.Run("first", func(b *testing.B) { benchAuditLine(b, &v, inputs) })
	hv, hin := heaviestLabAttack(b, lab)
	b.Run("heaviest", func(b *testing.B) { benchAuditLine(b, &hv, hin) })
}

func benchAuditLine(b *testing.B, v *joza.Verdict, inputs []joza.Input) {
	l := audit.NewLogger(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Log(v, joza.PolicyTerminate, inputs)
	}
	b.ReportMetric(float64(len(v.Reasons())), "reasons/line")
}

// heaviestLabAttack checks every lab exploit and its evasion mutants as
// the lab-attack workload sends them, through the webapp's input handling
// and under trained profiles, and returns the blocked verdict with the
// most reasons among those with a profile "unseen" reason.
func heaviestLabAttack(b *testing.B, lab *testbed.Lab) (joza.Verdict, []joza.Input) {
	b.Helper()
	store, err := lab.TrainProfiles()
	if err != nil {
		b.Fatal(err)
	}
	guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store))
	if err != nil {
		b.Fatal(err)
	}
	var (
		best   joza.Verdict
		inputs []joza.Input
	)
	for _, s := range lab.Specs {
		for _, payload := range []string{s.Exploit, evasion.WhitespacePadding(s.Exploit, nti.DefaultThreshold), evasion.QuoteStuffing(s.Exploit, nti.DefaultThreshold)} {
			req := lab.Request(s, payload)
			value := webapp.MagicQuotes(webapp.TrimWhitespace(req.Get[s.Param]))
			in := req.Inputs()
			v, err := guard.Check(context.Background(), joza.Request{Query: s.BuildQuery(value), Inputs: in, Site: "plugin:" + s.Name})
			if err != nil {
				b.Fatal(err)
			}
			if v.Attack && v.ProfileOutcome == "unseen" && len(v.Reasons()) > len(best.Reasons()) {
				best, inputs = v, in
			}
		}
	}
	if len(best.PTI.Reasons) == 0 {
		b.Fatal("no lab attack carries PTI reasons and a profile unseen reason")
	}
	return best, inputs
}

// BenchmarkLex measures the lexer: "fresh" is Lex, a new token slice per
// call; "append" lexes into a reused buffer, as the engine's stages do
// into the check State's pooled storage. "insert" and "search" append the
// wp-write workload's two query shapes: a comment post whose 40-word body
// is one long string literal, and an advanced search of LIKE terms.
// Every row reports bytes of query lexed per second.
func BenchmarkLex(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(benchQuery)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sqltoken.Lex(benchQuery)
		}
	})
	site, err := workload.NewSite(1001, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		query string
	}{
		{"append", benchQuery},
		{"insert", site.NextRequest(workload.Write).Events[2].Query},
		{"search", site.NextRequest(workload.Search).Events[1].Query},
	} {
		b.Run(row.name, func(b *testing.B) {
			buf := sqltoken.MySQL.AppendLex(nil, row.query)
			b.SetBytes(int64(len(row.query)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = sqltoken.MySQL.AppendLex(buf[:0], row.query)
			}
		})
	}
}

// BenchmarkSkeleton measures the profile stage's skeleton: "lex" is
// profile.SkeletonDialect, a lex and a fresh string per call; "tokens"
// builds from an already-published token stream into a reused buffer, as
// the engine's profile stage does once an earlier stage has lexed.
func BenchmarkSkeleton(b *testing.B) {
	q := "SELECT id, author, body FROM comments WHERE post_id IN (4, 8, 15) AND approved = '1' ORDER BY id LIMIT 50"
	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profile.SkeletonDialect(sqltoken.MySQL, q)
		}
	})
	b.Run("tokens", func(b *testing.B) {
		toks := sqltoken.MySQL.Lex(q)
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = profile.AppendSkeleton(buf[:0], toks)
		}
	})
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStructureKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sqlparse.StructureKey(benchQuery)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strdist.Levenshtein("-1 OR 1=1", "-1 OR 1=1 /*''''*/")
	}
}

func BenchmarkMinidbExec(b *testing.B) {
	db := minidb.New("bench")
	db.MustExec("CREATE TABLE posts (id INT, title TEXT, body TEXT)")
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO posts VALUES (%d, 'post %d', 'body')", i, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT id, title FROM posts WHERE id=42"); err != nil {
			b.Fatal(err)
		}
	}
}
