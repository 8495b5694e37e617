package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/metrics"
	"joza/internal/trace"
)

func testSnapshot() metrics.Snapshot {
	c := metrics.NewCollector()
	c.RecordCheck(false, false, false, 2*time.Microsecond)
	c.RecordCheck(true, false, false, 40*time.Microsecond)
	c.RecordDegraded()
	c.ObserveStage(metrics.StageLex, time.Microsecond)
	c.ObserveStage(metrics.StagePTICover, 3*time.Microsecond)
	c.ObserveStage(metrics.StageNTIMatch, 5*time.Microsecond)
	c.ObserveStage(metrics.StageNTIPrefilter, 2*time.Microsecond)
	s := c.Snapshot()
	s.NTIPrefilterChecks = 6
	s.NTIPrefilterRejects = 5
	s.CacheQueryHits = 7
	s.CacheMisses = 2
	s.CacheShards = []metrics.CacheShard{{Hits: 4, Entries: 2, Rejected: 3}, {Hits: 3, Entries: 2, Rejected: 2}}
	s.CacheStructureShards = []metrics.CacheShard{{Hits: 1, Entries: 2, Rejected: 4}, {Entries: 1, Rejected: 7}}
	s.DaemonAnalyzeOps = 9
	s.DaemonStatsOps = 1
	s.ClientCacheHits, s.ClientCacheMisses, s.ClientCacheRejected = 12, 4, 3
	s.ClientCacheFlushes, s.ClientCacheLeaseLapses = 2, 1
	return s
}

func startTestServer(t *testing.T, tracer *trace.Tracer) (*Server, string) {
	t.Helper()
	snap := testSnapshot()
	srv := NewServer(func() metrics.Snapshot { return snap }, tracer)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + addr.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, base := startTestServer(t, nil)
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"joza_checks_total 2",
		"joza_attacks_total 1",
		"joza_degraded_checks_total 1",
		`joza_pti_cache_lookups_total{outcome="query_hit"} 7`,
		`joza_pti_cache_admission_rejects_total{cache="query"} 5`,
		`joza_pti_cache_admission_rejects_total{cache="structure"} 11`,
		`joza_daemon_ops_total{op="analyze"} 9`,
		"# TYPE joza_check_duration_seconds histogram",
		`joza_check_duration_seconds_bucket{le="+Inf"} 2`,
		"joza_check_duration_seconds_count 2",
		"# TYPE joza_stage_duration_seconds histogram",
		`joza_stage_duration_seconds_bucket{stage="lex"`,
		`joza_stage_duration_seconds_bucket{stage="pti_cover"`,
		`joza_stage_duration_seconds_count{stage="nti_match"} 1`,
		`joza_stage_duration_seconds_count{stage="nti_prefilter"} 1`,
		"joza_nti_prefilter_checks_total 6",
		"joza_nti_prefilter_rejects_total 5",
		`joza_client_cache_lookups_total{outcome="hit"} 12`,
		`joza_client_cache_lookups_total{outcome="miss"} 4`,
		"joza_client_cache_admission_rejects_total 3",
		"joza_client_cache_flushes_total 2",
		"joza_client_cache_lease_lapses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// The HELP/TYPE header for the stage family must appear exactly once.
	if n := strings.Count(body, "# TYPE joza_stage_duration_seconds histogram"); n != 1 {
		t.Errorf("stage family header appears %d times, want 1", n)
	}
}

func TestCumulativeBuckets(t *testing.T) {
	var b strings.Builder
	s := metrics.Snapshot{
		LatencyCount: 3,
		LatencySumNs: 3000,
		LatencyBuckets: []metrics.Bucket{
			{LeNs: 1024, Count: 2},
			{LeNs: 2048, Count: 1},
		},
	}
	WritePrometheus(&b, s)
	out := b.String()
	for _, want := range []string{
		`joza_check_duration_seconds_bucket{le="1.024e-06"} 2`,
		`joza_check_duration_seconds_bucket{le="2.048e-06"} 3`,
		`joza_check_duration_seconds_bucket{le="+Inf"} 3`,
		"joza_check_duration_seconds_sum 3e-06",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, base := startTestServer(t, nil)
	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestPprofEndpoints(t *testing.T) {
	_, base := startTestServer(t, nil)
	code, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestTracesEndpoint(t *testing.T) {
	tracer := trace.New(trace.Config{SampleEvery: 1, RingSize: 8})
	s := tracer.Start("SELECT * FROM t WHERE id=-1 UNION SELECT 1")
	s.SetVerdict(true, true, false)
	tracer.Finish(s)
	_, base := startTestServer(t, tracer)
	code, body := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var dump trace.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if len(dump.Recent) != 1 || len(dump.Notable) != 1 {
		t.Fatalf("dump = %d recent, %d notable; want 1/1", len(dump.Recent), len(dump.Notable))
	}
	if !dump.Notable[0].Attack {
		t.Fatal("notable trace lost its verdict")
	}
}

func TestTracesEndpointNilTracer(t *testing.T) {
	_, base := startTestServer(t, nil)
	code, body := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var dump trace.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) != 0 || len(dump.Notable) != 0 {
		t.Fatal("nil tracer must serve an empty dump")
	}
}

// TestConcurrentScrapes hammers every endpoint from several goroutines
// while traces are being recorded, for the -race build.
func TestConcurrentScrapes(t *testing.T) {
	tracer := trace.New(trace.Config{SampleEvery: 1, RingSize: 16})
	_, base := startTestServer(t, tracer)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sp := tracer.Start(fmt.Sprintf("q%d", i))
				sp.SetVerdict(i%3 == 0, false, false)
				tracer.Finish(sp)
			}
		}()
		for _, ep := range []string{"/metrics", "/healthz", "/traces"} {
			wg.Add(1)
			go func(ep string) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if code, _ := get(t, base+ep); code != http.StatusOK {
						t.Errorf("%s returned %d", ep, code)
						return
					}
				}
			}(ep)
		}
	}
	wg.Wait()
}

func TestCloseIdempotent(t *testing.T) {
	srv := NewServer(func() metrics.Snapshot { return metrics.Snapshot{} }, nil)
	if err := srv.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Fatal("Addr empty after Start")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
