// Command jozabench drives the performance evaluation of Section VI and
// prints the paper's performance tables and figures:
//
//	jozabench -table 5    # read/write overhead per cache configuration
//	jozabench -table 6    # overall overhead by workload mix
//	jozabench -table 7    # WordPress.com stats and predicted overhead
//	jozabench -figure 7   # PTI breakdown, unoptimized vs optimized daemon
//	jozabench -figure 8   # read/write/search with and without Joza
//	jozabench -all        # everything (the default with no selection)
//	jozabench -all -json bench.json   # also write results as JSON
//
// The -json report carries every section the invocation ran plus the run
// parameters and Go version, so CI can archive one machine-readable
// artifact per commit. Transport, batch, shard and matcher costs are
// go test -bench families in the root package (bench_test.go), and the
// per-check end-to-end and per-layer costs are the jozasuite benchmark's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"joza/internal/workload"
)

// benchReport is the -json output: one section per table or figure the
// invocation ran, omitted when not run. Table VII is derived from Table V
// and published statistics, so it is printed only.
type benchReport struct {
	GeneratedAt string `json:"generatedAt"`
	GoVersion   string `json:"goVersion"`
	NumCPU      int    `json:"numCpu"`
	URLs        int    `json:"urls"`
	Requests    int    `json:"requests"`
	Seed        int64  `json:"seed"`

	Table5  *workload.Table5Result `json:"table5,omitempty"`
	Table6  []workload.Table6Row   `json:"table6,omitempty"`
	Figure7 []workload.Figure7Bar  `json:"figure7,omitempty"`
	Figure8 []workload.Figure8Row  `json:"figure8,omitempty"`
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
	all := fs.Bool("all", false, "print every table and figure (the default with no selection)")
	urls := fs.Int("urls", 1001, "crawl-space size (unique URLs)")
	requests := fs.Int("requests", 400, "requests per measurement")
	seed := fs.Int64("seed", 42, "workload generator seed")
	jsonPath := fs.String("json", "", "also write the results of this run as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !*all && *table == 0 && *figure == 0 {
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
