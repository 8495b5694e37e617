package daemon

import (
	"context"
	"strings"
	"testing"

	"joza/internal/engine"
)

// TestStatsVerbOverPipe exercises the "stats" wire verb end to end: analyze
// traffic accumulates in the daemon's counters and the snapshot reports the
// analyzer's cache activity.
func TestStatsVerbOverPipe(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	for i := 0; i < 3; i++ {
		if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", attackQuery); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checks != 4 {
		t.Errorf("checks = %d, want 4", st.Checks)
	}
	if st.Attacks != 1 || st.PTIAttacks != 1 {
		t.Errorf("attacks = %d (pti %d), want 1", st.Attacks, st.PTIAttacks)
	}
	if st.NTIAttacks != 0 {
		t.Errorf("ntiAttacks = %d; NTI runs application-side", st.NTIAttacks)
	}
	// Repeats of benignQuery hit the query cache.
	if st.CacheQueryHits < 2 {
		t.Errorf("cache query hits = %d, want >= 2", st.CacheQueryHits)
	}
	if len(st.CacheShards) == 0 {
		t.Error("no per-shard cache stats")
	}
	if st.LatencyP99Ns == 0 {
		t.Error("latency histogram empty")
	}
}

// TestStatsVerbCountersSurviveSwap pins that SetSnapshot keeps the request
// counters while the cache fields follow the new analyzer.
func TestStatsVerbCountersSurviveSwap(t *testing.T) {
	srv := NewServer(newAnalyzer())
	c := pipePool(srv, 0)
	defer c.Close()
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	srv.SetSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{}, ""))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checks != 2 {
		t.Errorf("checks after swap = %d, want 2", st.Checks)
	}
	if st.CacheQueryHits != 0 || st.CacheMisses != 0 {
		t.Errorf("fresh analyzer cache = hits %d / misses %d, want 0/0",
			st.CacheQueryHits, st.CacheMisses)
	}
}

// TestUnknownOpRejected pins the protocol's forward-compatibility contract:
// an unrecognized verb yields an error response, not a hung or dropped
// connection, and the connection keeps serving afterwards.
func TestUnknownOpRejected(t *testing.T) {
	c := pipeFrames(t, NewServer(newAnalyzer()))
	if resp := c.send(wireRequest{Op: "flush"}); !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("error = %q, want unknown op", resp.Err)
	}
	// The connection survives: a normal analyze still works.
	if resp := c.send(wireRequest{Query: benignQuery}); resp.Err != "" || resp.Reply == nil || resp.Reply.Attack {
		t.Errorf("analyze after unknown op = %+v", resp)
	}
}
