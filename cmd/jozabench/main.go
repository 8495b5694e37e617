// Command jozabench drives the performance evaluation of Section VI and
// prints the paper's performance tables and figures:
//
//	jozabench -table 5    # read/write overhead per cache configuration
//	jozabench -table 6    # overall overhead by workload mix
//	jozabench -table 7    # WordPress.com stats and predicted overhead
//	jozabench -figure 7   # PTI breakdown, unoptimized vs optimized daemon
//	jozabench -figure 8   # read/write/search with and without Joza
//	jozabench -metrics    # run the mix through one Guard, print its counters
//	jozabench -transport  # single daemon connection vs connection pool
//	jozabench -nti        # NTI matcher before/after (Sellers vs bit-parallel+prefilter)
//	jozabench -lex        # per-dialect lexer cost; asserts the cache-hit path is zero-alloc
//	jozabench -scale      # wire batch-size sweep and 1/2/4-shard fleet sweep
//	jozabench -all        # everything
//	jozabench -all -json bench.json   # also write results as JSON
//	jozabench -diff old.json new.json # compare two -json reports (warn-only)
//
// The -json report carries every section the invocation ran plus the run
// parameters and Go version, so CI can archive one machine-readable
// artifact per commit and diff benchmark results across commits. -diff
// compares the matcher-relevant fields of two such reports and emits
// GitHub warning annotations on >20% regressions without ever failing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"joza"
	"joza/internal/daemon"
	"joza/internal/pti"
	"joza/internal/workload"
)

// benchReport is the -json output: one section per benchmark the
// invocation ran, omitted when not run.
type benchReport struct {
	GeneratedAt string `json:"generatedAt"`
	GoVersion   string `json:"goVersion"`
	NumCPU      int    `json:"numCpu"`
	URLs        int    `json:"urls"`
	Requests    int    `json:"requests"`
	Seed        int64  `json:"seed"`

	Table5       *workload.Table5Result `json:"table5,omitempty"`
	Table6       []workload.Table6Row   `json:"table6,omitempty"`
	Figure7      []workload.Figure7Bar  `json:"figure7,omitempty"`
	Figure8      []workload.Figure8Row  `json:"figure8,omitempty"`
	Transport    *transportResult       `json:"transport,omitempty"`
	GuardMetrics *joza.Metrics          `json:"guardMetrics,omitempty"`
	NTIBench     *ntiBenchResult        `json:"ntiBench,omitempty"`
	LexBench     *lexBenchResult        `json:"lexBench,omitempty"`
	Scale        *scaleResult           `json:"scale,omitempty"`
}

// transportResult is the measured outcome of the transport comparison.
type transportResult struct {
	Workers       int     `json:"workers"`
	Queries       int     `json:"queries"`
	SingleQPS     float64 `json:"singleQps"`
	PoolQPS       float64 `json:"poolQps"`
	PoolSpeedup   float64 `json:"poolSpeedup"`
	SingleSeconds float64 `json:"singleSeconds"`
	PoolSeconds   float64 `json:"poolSeconds"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("jozabench: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jozabench", flag.ContinueOnError)
	table := fs.Int("table", 0, "print table 5, 6 or 7")
	figure := fs.Int("figure", 0, "print figure 7 or 8")
	showMetrics := fs.Bool("metrics", false, "run the mixed workload through one Guard and print joza.Metrics")
	transport := fs.Bool("transport", false, "compare one shared daemon connection against a connection pool under concurrency")
	poolSize := fs.Int("pool", 8, "with -transport: pool size and worker count")
	ntiBench := fs.Bool("nti", false, "benchmark the NTI matcher before/after the bit-parallel engine and prefilter")
	lexBench := fs.Bool("lex", false, "benchmark the dialect-dispatched lexer and assert the reused-buffer lex and the cached analyze fast path stay zero-alloc")
	scale := fs.Bool("scale", false, "sweep wire batch sizes and 1/2/4-shard fleets")
	rtt := fs.Duration("rtt", 3*time.Millisecond, "with -scale: simulated per-frame network RTT for the shard sweep (0 disables)")
	diff := fs.String("diff", "", "compare this previous -json report against a second report given as a positional argument; warn-only")
	all := fs.Bool("all", false, "run everything")
	urls := fs.Int("urls", 1001, "crawl-space size (unique URLs)")
	requests := fs.Int("requests", 400, "requests per measurement")
	seed := fs.Int64("seed", 42, "workload generator seed")
	jsonPath := fs.String("json", "", "also write the results of this run as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-diff wants exactly one positional argument (the new report), got %d", fs.NArg())
		}
		return runDiff(*diff, fs.Arg(0))
	}
	if !*all && *table == 0 && *figure == 0 && !*showMetrics && !*transport && !*ntiBench && !*lexBench && !*scale {
		*all = true
	}

	site, err := workload.NewSite(*urls, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("site: %d URLs, %d trusted fragments, %d requests per run\n\n",
		site.NumURLs, site.Fragments.Len(), *requests)

	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		URLs:        *urls,
		Requests:    *requests,
		Seed:        *seed,
	}

	var readOvh, writeOvh float64
	if *all || *table == 5 || *table == 7 {
		res, err := workload.RunTable5(site, *requests)
		if err != nil {
			return err
		}
		if *all || *table == 5 {
			fmt.Println(res.Format())
			report.Table5 = res
		}
		// The query+structure daemon row feeds Table VII's prediction.
		for _, row := range res.Rows {
			if row.Config == "PTI daemon, query+structure cache" {
				readOvh, writeOvh = row.ReadOverhead, row.WriteOverhead
			}
		}
	}
	if *all || *table == 6 {
		rows, err := workload.RunTable6(site, *requests)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatTable6(rows))
		fmt.Println(workload.SparklineTable6(rows))
		report.Table6 = rows
	}
	if *all || *table == 7 {
		stats := workload.DefaultWordPressStats()
		fmt.Println(workload.FormatTable7(stats, readOvh, writeOvh))
	}
	if *all || *figure == 7 {
		bars, err := workload.RunFigure7(site, *requests)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatFigure7(bars))
		fmt.Println(workload.ChartFigure7(bars))
		report.Figure7 = bars
	}
	if *all || *figure == 8 {
		rows, err := workload.RunFigure8(site, *requests)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatFigure8(rows))
		fmt.Println(workload.ChartFigure8(rows))
		report.Figure8 = rows
	}
	if *all || *showMetrics {
		snap, err := runGuardMetrics(site, *requests)
		if err != nil {
			return err
		}
		report.GuardMetrics = snap
	}
	if *all || *transport {
		tr, err := runTransportBench(site, *requests, *poolSize)
		if err != nil {
			return err
		}
		report.Transport = tr
	}
	if *all || *ntiBench {
		nb, err := runNTIBench(*requests, *seed)
		if err != nil {
			return err
		}
		report.NTIBench = nb
	}
	if *all || *lexBench {
		lb, err := runLexBench(*requests)
		if err != nil {
			return err
		}
		report.LexBench = lb
	}
	if *all || *scale {
		sc, err := runScaleBench(site, *requests, *poolSize*2, *rtt)
		if err != nil {
			return err
		}
		report.Scale = sc
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", *jsonPath)
	}
	return nil
}

// runTransportBench drives the same query stream through a TCP daemon
// twice — once over a single shared connection (every request serializes
// on its mutex), once over a connection pool of the same width as the
// worker count — and prints the throughput of each. This is the remote
// deployment's scaling story: the analysis is microseconds, so the
// transport's head-of-line blocking dominates under concurrency.
func runTransportBench(site *workload.Site, requests, workers int) (*transportResult, error) {
	if workers < 1 {
		workers = 1
	}
	analyzer := pti.NewCached(pti.New(site.Fragments), pti.CacheQueryAndStructure, 8192)
	srv := daemon.NewServer(analyzer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	var queries []string
	for _, req := range site.GenerateMix(workload.Mix{WriteFraction: 0.04}, requests) {
		for _, ev := range req.Events {
			queries = append(queries, ev.Query)
		}
	}

	drive := func(t daemon.Transport) (time.Duration, error) {
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(queries); i += workers {
					if _, err := t.AnalyzeSiteContext(context.Background(), "", queries[i]); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		return elapsed, <-errs
	}

	single, err := daemon.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer single.Close()
	singleTime, err := drive(single)
	if err != nil {
		return nil, err
	}
	pool := daemon.DialPool(ln.Addr().String(), daemon.PoolConfig{Size: workers})
	defer pool.Close()
	poolTime, err := drive(pool)
	if err != nil {
		return nil, err
	}

	ops := float64(len(queries))
	fmt.Printf("daemon transport, %d workers, %d queries:\n", workers, len(queries))
	fmt.Printf("  single connection: %8.0f q/s (%v)\n", ops/singleTime.Seconds(), singleTime.Round(time.Millisecond))
	fmt.Printf("  pool (size %2d):    %8.0f q/s (%v)  %.1fx\n",
		workers, ops/poolTime.Seconds(), poolTime.Round(time.Millisecond),
		singleTime.Seconds()/poolTime.Seconds())
	return &transportResult{
		Workers:       workers,
		Queries:       len(queries),
		SingleQPS:     ops / singleTime.Seconds(),
		PoolQPS:       ops / poolTime.Seconds(),
		PoolSpeedup:   singleTime.Seconds() / poolTime.Seconds(),
		SingleSeconds: singleTime.Seconds(),
		PoolSeconds:   poolTime.Seconds(),
	}, nil
}

// runGuardMetrics drives the Table VI workload mix through a single
// library-mode Guard and prints its counter snapshot — the operator-facing
// view of the same run the tables time. The snapshot is returned for the
// JSON report.
func runGuardMetrics(site *workload.Site, requests int) (*joza.Metrics, error) {
	guard, err := joza.New(
		joza.WithFragmentSet(site.Fragments),
		joza.WithCacheMode(joza.CacheQueryAndStructure, 8192),
	)
	if err != nil {
		return nil, err
	}
	reqs := site.GenerateMix(workload.Mix{WriteFraction: 0.04}, requests)
	reqs = append(reqs, site.GenerateRequests(workload.Search, requests/20)...)
	for _, req := range reqs {
		for _, ev := range req.Events {
			// Only the counters matter; an in-process check under
			// context.Background() cannot fail.
			_, _ = guard.Check(context.Background(), joza.Request{Query: ev.Query, Inputs: ev.Inputs})
		}
	}
	fmt.Println("guard metrics (read/write/search mix, query+structure cache):")
	snap := guard.Metrics()
	fmt.Println(snap.Format())
	return &snap, nil
}
