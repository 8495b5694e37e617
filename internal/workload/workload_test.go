package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"joza/internal/nti"
	"joza/internal/pti"
)

func newSite(t *testing.T) *Site {
	t.Helper()
	site, err := NewSite(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestSiteSeeding(t *testing.T) {
	site := newSite(t)
	res, err := site.DB.Exec("SELECT COUNT(*) FROM posts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(50) {
		t.Errorf("posts = %v", res.Rows[0][0])
	}
	if site.Fragments.Len() == 0 {
		t.Error("no fragments extracted")
	}
}

func TestRequestGeneration(t *testing.T) {
	site := newSite(t)
	read := site.NextRequest(Read)
	if read.Kind != Read || len(read.Events) != 5 {
		t.Errorf("read = %+v", read)
	}
	write := site.NextRequest(Write)
	if write.Kind != Write || len(write.Events) != 4 {
		t.Errorf("write = %+v", write)
	}
	hasInsert := false
	for _, ev := range write.Events {
		if strings.HasPrefix(ev.Query, "INSERT") {
			hasInsert = true
		}
	}
	if !hasInsert {
		t.Error("write request has no INSERT")
	}
	search := site.NextRequest(Search)
	if search.Kind != Search || !strings.Contains(search.Events[1].Query, "LIKE") {
		t.Errorf("search = %+v", search)
	}
}

func TestRunRequestsPlain(t *testing.T) {
	site := newSite(t)
	reqs := site.GenerateRequests(Read, 20)
	tm, err := RunRequests(site, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Requests != 20 || tm.Queries != 100 {
		t.Errorf("timing = %+v", tm)
	}
	if tm.PTI != 0 || tm.NTI != 0 {
		t.Error("plain run must not spend analyzer time")
	}
	if tm.PerRequest() <= 0 {
		t.Error("per-request time must be positive")
	}
}

func TestRunRequestsProtectedNoFalsePositives(t *testing.T) {
	site := newSite(t)
	for _, remote := range []bool{false, true} {
		prot, stop := NewProtection("t", site,
			PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: remote}, true)
		for _, kind := range []RequestKind{Read, Write, Search} {
			reqs := site.GenerateRequests(kind, 15)
			tm, err := RunRequests(site, reqs, prot)
			if err != nil {
				t.Fatalf("remote=%v kind=%v: %v", remote, kind, err)
			}
			if tm.PTI == 0 {
				t.Errorf("remote=%v kind=%v: no PTI time recorded", remote, kind)
			}
			if tm.NTI == 0 {
				t.Errorf("remote=%v kind=%v: no NTI time recorded", remote, kind)
			}
		}
		stop()
	}
}

func TestUnoptimizedVariantWorks(t *testing.T) {
	site := newSite(t)
	prot, stop := NewProtection("naive", site,
		PTIVariant{NoParseFirst: true, NoMRU: true, Cache: pti.CacheNone}, false)
	defer stop()
	reqs := site.GenerateRequests(Read, 5)
	if _, err := RunRequests(site, reqs, prot); err != nil {
		t.Fatal(err)
	}
}

func TestMixKinds(t *testing.T) {
	m := Mix{WriteFraction: 0.1}
	writes := 0
	for i := 1; i <= 100; i++ {
		if m.kindAt(i) == Write {
			writes++
		}
	}
	if writes != 10 {
		t.Errorf("writes = %d, want 10", writes)
	}
	if (Mix{}).kindAt(5) != Read {
		t.Error("zero mix must be all reads")
	}
}

func TestOverheadPercent(t *testing.T) {
	plain := Timing{Requests: 10, Total: 1000}
	prot := Timing{Requests: 10, Total: 1100}
	got := OverheadPercent(prot, plain)
	if got < 9.9 || got > 10.1 {
		t.Errorf("overhead = %v", got)
	}
	if OverheadPercent(prot, Timing{}) != 0 {
		t.Error("zero baseline must yield 0")
	}
}

func TestTable5SmallRun(t *testing.T) {
	site := newSite(t)
	res, err := RunTable5(site, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Format()
	if !strings.Contains(out, "TABLE V") || !strings.Contains(out, "query cache") {
		t.Errorf("format = %q", out)
	}
}

func TestTable6SmallRun(t *testing.T) {
	site := newSite(t)
	rows, err := RunTable6(site, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].WritePct != 50 || rows[3].WritePct != 1 {
		t.Errorf("mixes = %+v", rows)
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "TABLE VI") {
		t.Errorf("format = %q", out)
	}
}

func TestTable7Stats(t *testing.T) {
	s := DefaultWordPressStats()
	w := s.WriteFraction()
	if w <= 0 || w >= 0.01 {
		t.Errorf("write fraction = %v, want under 1%%", w)
	}
	pred := s.PredictOverhead(4.0, 12.0)
	if pred < 4.0 || pred > 4.2 {
		t.Errorf("predicted overhead = %v", pred)
	}
	out := FormatTable7(s, 4.0, 12.0)
	if !strings.Contains(out, "TABLE VII") || !strings.Contains(out, "predicted overhead") {
		t.Errorf("format = %q", out)
	}
	if (WordPressStats{}).WriteFraction() != 0 {
		t.Error("zero stats must yield 0")
	}
}

func TestFigure7ShapeHolds(t *testing.T) {
	site := newSite(t)
	bars, err := RunFigure7(site, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 2 {
		t.Fatalf("bars = %d", len(bars))
	}
	// The optimized daemon must spend substantially less PTI time than
	// the unoptimized configuration (the paper reports −66%).
	if bars[1].PTIProcessing*2 >= bars[0].PTIProcessing {
		t.Errorf("optimized PTI %v not <50%% of unoptimized %v",
			bars[1].PTIProcessing, bars[0].PTIProcessing)
	}
	out := FormatFigure7(bars)
	if !strings.Contains(out, "FIGURE 7") || !strings.Contains(out, "reduce PTI processing") {
		t.Errorf("format = %q", out)
	}
}

func TestFigure8SmallRun(t *testing.T) {
	site := newSite(t)
	rows, err := RunFigure8(site, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatFigure8(rows)
	for _, want := range []string{"FIGURE 8", "read", "write", "search"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q: %q", want, out)
		}
	}
}

func TestRequestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" ||
		Search.String() != "search" || RequestKind(0).String() != "unknown" {
		t.Error("RequestKind.String mismatch")
	}
}

func TestNewSiteDefaults(t *testing.T) {
	site, err := NewSite(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if site.NumURLs != 1001 {
		t.Errorf("NumURLs = %d", site.NumURLs)
	}
}

func TestSpawnPerRequestVariant(t *testing.T) {
	site := newSite(t)
	spawn, stop := NewProtection("spawn", site,
		PTIVariant{SpawnPerRequest: true, Cache: pti.CacheNone}, false)
	defer stop()
	// Compare against the long-lived daemon: spawning per request costs
	// strictly more PTI time for the same work.
	longLived, stop2 := NewProtection("daemon", site,
		PTIVariant{Remote: true, Cache: pti.CacheNone}, false)
	defer stop2()
	reqs := site.GenerateRequests(Read, 10)
	// Each side runs three times, alternating, and keeps its fastest run,
	// so one scheduler stall cannot decide the comparison.
	var best [2]time.Duration
	for i := 0; i < 3; i++ {
		for side, prot := range []*Protection{spawn, longLived} {
			tm, err := RunRequests(site, reqs, prot)
			if err != nil {
				t.Fatal(err)
			}
			if side == 0 && tm.PTI == 0 {
				t.Fatal("spawn-per-request must record PTI-side time")
			}
			if i == 0 || tm.PTI < best[side] {
				best[side] = tm.PTI
			}
		}
	}
	if best[0] <= best[1]/2 {
		t.Errorf("spawn-per-request PTI %v unexpectedly cheaper than long-lived %v", best[0], best[1])
	}
}

// TestSpawnPerRequestFlaggedQueryStopsDaemon: a request whose query the
// guard flags ends the run with an error, and the daemon spawned for that
// request is torn down with it: no server goroutine outlives the run,
// whichever analyzer flagged the query.
func TestSpawnPerRequestFlaggedQueryStopsDaemon(t *testing.T) {
	site := newSite(t)
	for _, tc := range []struct {
		name    string
		withNTI bool
		ev      QueryEvent
		want    string
	}{
		{"pti", false, QueryEvent{Query: "SELECT id, title, body FROM posts WHERE id=-1 OR 1=1"}, "benign workload flagged:"},
		{"nti", true, QueryEvent{
			Query:  "SELECT id, title, body FROM posts WHERE id=5",
			Inputs: []nti.Input{{Source: "get", Name: "q", Value: "SELECT id, title, body FROM posts"}},
		}, "flagged by NTI"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prot, stop := NewProtection("spawn", site, PTIVariant{SpawnPerRequest: true, Cache: pti.CacheNone}, tc.withNTI)
			defer stop()
			_, err := RunRequests(site, []*Request{{Kind: Read, Events: []QueryEvent{tc.ev}}}, prot)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			buf := make([]byte, 1<<20)
			if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Server).ServeConn") {
				t.Fatalf("the flagged request's daemon still serves:\n%s", stacks)
			}
		})
	}
}

// TestClientCacheStructureHitRespectsCap: a structure hit promotes its
// query into the exact cache only while that cache has room, as store
// does, so a stream of distinct writes cannot grow it without bound.
func TestClientCacheStructureHitRespectsCap(t *testing.T) {
	c := newClientCache(pti.CacheQueryAndStructure, 2)
	c.store("SELECT id, title, body FROM posts WHERE id=1")
	for i := 2; i < 10; i++ {
		if q := fmt.Sprintf("SELECT id, title, body FROM posts WHERE id=%d", i); !c.lookup(q) {
			t.Fatalf("%q missed the structure cache", q)
		}
	}
	if n := len(c.queries); n != 2 {
		t.Errorf("exact cache holds %d queries, want its capacity 2", n)
	}
}
