package daemon

import (
	"context"
	"net"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/nti"
	"joza/internal/profile"
)

// trainedStore profiles "plugin:records" with the benign query's skeleton.
func trainedStore() *profile.Store {
	rec := profile.NewRecorder()
	rec.Record("plugin:records", benignQuery)
	return rec.Store()
}

func TestServerProfileOutcomes(t *testing.T) {
	ln, srv := startServerWithOptions(t, WithProfiles(trainedStore()))
	c := DialPool(ln, PoolConfig{Size: 1})
	defer c.Close()
	_ = srv
	ctx := context.Background()

	reply, err := c.AnalyzeSiteContext(ctx, "plugin:records", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || reply.Profile.Outcome != "seen" || reply.Profile.Attack {
		t.Errorf("seen reply = %+v", reply.Profile)
	}

	reply, err = c.AnalyzeSiteContext(ctx, "plugin:records", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || reply.Profile.Outcome != "unseen" || !reply.Profile.Attack {
		t.Errorf("unseen reply = %+v", reply.Profile)
	}
	if reply.Profile.Detail == "" || reply.Profile.Skeleton == "" {
		t.Errorf("unseen reply missing evidence: %+v", reply.Profile)
	}

	reply, err = c.AnalyzeSiteContext(ctx, "plugin:other", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || reply.Profile.Outcome != "site-unknown" || reply.Profile.Attack {
		t.Errorf("site-unknown reply = %+v", reply.Profile)
	}

	// Requests without a site carry no profile verdict at all.
	reply, err = c.AnalyzeSiteContext(ctx, "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile != nil {
		t.Errorf("siteless reply carries profile: %+v", reply.Profile)
	}
}

func TestServerProfileLearning(t *testing.T) {
	rec := profile.NewRecorder()
	ln, _ := startServerWithOptions(t, WithSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{Recorder: rec}, "")))
	c := DialPool(ln, PoolConfig{Size: 1})
	defer c.Close()

	reply, err := c.AnalyzeSiteContext(context.Background(), "plugin:records", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || reply.Profile.Outcome != "learned" {
		t.Fatalf("learning reply = %+v", reply.Profile)
	}
	if sites, sks := rec.Len(); sites != 1 || sks != 1 {
		t.Errorf("recorder = (%d, %d), want (1, 1)", sites, sks)
	}
	st := rec.Store()
	if st.Lookup("plugin:records", profile.Skeleton(benignQuery)) != profile.SkeletonSeen {
		t.Error("learned skeleton not in frozen store")
	}
}

func TestServerSetProfilesHotSwap(t *testing.T) {
	ln, srv := startServerWithOptions(t)
	c := DialPool(ln, PoolConfig{Size: 1})
	defer c.Close()
	ctx := context.Background()

	reply, err := c.AnalyzeSiteContext(ctx, "plugin:records", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile != nil {
		t.Fatalf("profile verdict before any store: %+v", reply.Profile)
	}
	srv.SetSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{Store: trainedStore()}, ""))
	reply, err = c.AnalyzeSiteContext(ctx, "plugin:records", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || !reply.Profile.Attack {
		t.Errorf("swapped-in store not enforcing: %+v", reply.Profile)
	}
}

func TestPoolAndBatcherCarrySite(t *testing.T) {
	for _, batch := range []int{0, 4} {
		ln, _ := startServerWithOptions(t, WithProfiles(trainedStore()))
		p := DialPool(ln, PoolConfig{Size: 2, Timeout: 5 * time.Second, BatchSize: batch, BatchLinger: time.Millisecond})
		reply, err := p.AnalyzeSiteContext(context.Background(), "plugin:records", attackQuery)
		_ = p.Close()
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if reply.Profile == nil || reply.Profile.Outcome != "unseen" || !reply.Profile.Attack {
			t.Errorf("batch=%d: profile = %+v", batch, reply.Profile)
		}
	}
}

func TestShardedPoolCarriesSite(t *testing.T) {
	addrs := []string{}
	for i := 0; i < 2; i++ {
		ln, _ := startServerWithOptions(t, WithProfiles(trainedStore()))
		addrs = append(addrs, ln)
	}
	sp, err := DialShardedPool(addrs, PoolConfig{Size: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	reply, err := sp.AnalyzeSiteContext(context.Background(), "plugin:records", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || !reply.Profile.Attack {
		t.Errorf("sharded profile = %+v", reply.Profile)
	}
}

func TestDirectSiteTransport(t *testing.T) {
	d := NewDirect(newAnalyzer())
	defer d.Close()
	d.SetProfiles(trainedStore())
	reply, err := d.AnalyzeSiteContext(context.Background(), "plugin:records", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Profile == nil || reply.Profile.Outcome != "unseen" || !reply.Profile.Attack {
		t.Errorf("direct profile = %+v", reply.Profile)
	}
}

func TestHybridClientProfileStage(t *testing.T) {
	d := NewDirect(newAnalyzer())
	d.SetProfiles(trainedStore())
	h := NewHybridClient(d, nti.MustNew(), core.PolicyTerminate)
	ctx := context.Background()

	// The profiled benign skeleton passes.
	v, err := h.CheckContextAt(ctx, "plugin:records", benignQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("benign profiled check flagged: %v", v.Reasons())
	}

	// A fragment-covered, NTI-invisible query with an unseen skeleton is
	// caught only by the profile stage.
	rebuilt := "SELECT * FROM records WHERE ID=5 OR ID=6 LIMIT 5"
	v, err = h.CheckContextAt(ctx, "plugin:records", rebuilt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Profile.Attack {
		t.Fatalf("profile stage missed unseen skeleton: %+v", v)
	}
	if !v.Attack {
		t.Error("hybrid verdict must be attack")
	}

	// site-unknown is lenient by default...
	v, err = h.CheckContextAt(ctx, "plugin:untrained", benignQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Profile.Attack {
		t.Errorf("unknown site flagged without strict mode: %+v", v.Profile)
	}
	// ...and Authorize blocks on the profile verdict.
	if err := h.Authorize(ctx, engine.Request{Site: "plugin:records", Query: rebuilt}); err == nil {
		t.Error("Authorize allowed an unseen skeleton")
	}
	_ = h.Close()

	// Strict mode escalates site-unknown.
	d2 := NewDirect(newAnalyzer())
	d2.SetProfiles(trainedStore())
	hs := NewHybridClient(d2, nti.MustNew(), core.PolicyTerminate, WithStrictProfiles())
	defer hs.Close()
	v, err = hs.CheckContextAt(ctx, "plugin:untrained", benignQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Profile.Attack {
		t.Error("strict mode must flag an unprofiled call site")
	}
}

// startServerWithOptions boots a TCP server with opts and returns its
// address and the server for hot-swap tests.
func startServerWithOptions(t *testing.T, opts ...ServerOption) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newAnalyzer(), opts...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String(), srv
}

// TestWithProfilesKeepsOtherStages: WithProfiles swaps only the profile
// stage of the initial snapshot, so applied after WithSnapshot it keeps
// the snapshot's other stages and version and replaces its recorder.
func TestWithProfilesKeepsOtherStages(t *testing.T) {
	snap := NewSnapshot(newAnalyzer(), engine.ProfileStage{Recorder: profile.NewRecorder()}, "0123456789abcdef")
	custom := engine.Func{StageName: "custom", Fn: func(context.Context, engine.Request, *engine.State) (core.Result, error) {
		return core.Result{}, nil
	}}
	snap.Analyzers = append([]engine.Analyzer{custom}, snap.Analyzers...)
	st := trainedStore()
	srv := NewServer(newAnalyzer(), WithSnapshot(snap), WithProfiles(st))
	got := srv.eng.Snapshot()
	if len(got.Analyzers) != 3 || got.Analyzers[0].Name() != "custom" || got.Analyzers[1].Name() != core.AnalyzerPTI {
		t.Fatalf("stages = %v, want custom, pti, profile", got.Analyzers)
	}
	if p, ok := got.Analyzers[2].(engine.ProfileStage); !ok || p.Store != st || p.Recorder != nil {
		t.Fatalf("profile stage = %+v, want the store alone", got.Analyzers[2])
	}
	if got.Profiles != st || got.Version != snap.Version || got.PTI != snap.PTI {
		t.Fatal("WithProfiles changed more than the profile stage")
	}
}
