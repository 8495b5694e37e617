package joza_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"joza"
	"joza/internal/nti"
	"joza/internal/pti"
)

// TestVerdictVersionAttributionUnderConcurrentRefresh hammers
// Guard.Check from many goroutines while Manager.Refresh swaps
// snapshots underneath them, on a Guard carrying the full versioned state
// (fragments, a profile store, a non-default dialect). Run under -race it
// proves two things at once: the hot path is data-race free across swaps,
// and every verdict is attributable to exactly one whole snapshot version
// — one of the two generations' versions, never empty and never a value
// that no complete snapshot ever had (which is what a torn
// fragments-from-A-profiles-from-B read would produce, since the version
// is computed over the whole snapshot at build time).
func TestVerdictVersionAttributionUnderConcurrentRefresh(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "app.php")
	contentA := []byte(refreshSrc)
	contentB := []byte(refreshSrc + "\n" + `$q2 = "SELECT name FROM users WHERE uid=";`)
	if err := os.WriteFile(file, contentA, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := joza.NewProfileRecorderDialect(joza.DialectPostgres)
	rec.Record("app.php:2", "SELECT * FROM records WHERE ID=5 LIMIT 5")
	opts := []joza.Option{
		joza.WithDialect(joza.DialectPostgres),
		joza.WithProfileStore(rec.Store()),
		joza.WithCacheMode(joza.CacheQueryAndStructure, 64),
	}
	m, err := joza.NewManager(dir, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Learn both generations' versions up front: they differ (the fragment
	// corpus differs) and neither is empty.
	versionA := m.SnapshotVersion()
	if err := os.WriteFile(file, contentB, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	versionB := m.SnapshotVersion()
	if versionA == "" || versionB == "" || versionA == versionB {
		t.Fatalf("generation versions = %q, %q; want two distinct non-empty versions", versionA, versionB)
	}

	const (
		workers = 8
		iters   = 250
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (seed*37 + i) % 200
				q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", id)
				in := []joza.Input{{Source: "get", Name: "id", Value: fmt.Sprint(id)}}
				v, err := m.Guard().Check(ctx, joza.Request{Query: q, Inputs: in})
				if err != nil {
					t.Errorf("check: %v", err)
					return
				}
				if v.Attack {
					t.Errorf("benign flagged: %s", q)
					return
				}
				if v.Version != versionA && v.Version != versionB {
					t.Errorf("verdict version %q belongs to no whole snapshot (want %q or %q)",
						v.Version, versionA, versionB)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			content := contentA
			if i%2 == 1 {
				content = contentB
			}
			if err := os.WriteFile(file, content, 0o644); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// The manager's own reported version settled on one of the two whole
	// generations too.
	if got := m.SnapshotVersion(); got != versionA && got != versionB {
		t.Fatalf("final SnapshotVersion = %q", got)
	}
}

// TestSnapshotVersionCoversVerdictInputs: a verdict is a function of the
// request and the snapshot version, so two Guards whose configurations
// can decide a request differently must report different versions, and
// Guards that differ only in how fast they decide must share one. A
// 3-token PTI budget is the witness: it fails the benign query closed
// where the default Guard passes it.
func TestSnapshotVersionCoversVerdictInputs(t *testing.T) {
	frags := joza.WithFragments([]string{"SELECT * FROM t WHERE id=", " LIMIT "})
	version := func(opts ...joza.Option) string {
		t.Helper()
		g, err := joza.New(append([]joza.Option{frags}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return g.SnapshotVersion()
	}
	tiny, err := joza.New(frags, joza.WithBudgets(joza.Budgets{PTITokens: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tiny.Check(context.Background(), joza.Request{Query: "SELECT * FROM t WHERE id=1 LIMIT 5"}); err != nil || !v.Attack || !v.Failed {
		t.Fatalf("3-token budget: verdict %+v, err %v; want a fail-closed attack", v, err)
	}

	base := version()
	differ := map[string][]joza.Option{
		"PTITokens":         {joza.WithBudgets(joza.Budgets{PTITokens: 3})},
		"NTIDPCells":        {joza.WithBudgets(joza.Budgets{NTIDPCells: 1000})},
		"MaxQueryBytes":     {joza.WithBudgets(joza.Budgets{MaxQueryBytes: 16})},
		"MaxInputBytes":     {joza.WithBudgets(joza.Budgets{MaxInputBytes: 16})},
		"WithNTIThreshold":  {joza.WithNTIThreshold(0.3)},
		"WithoutNTI":        {joza.WithoutNTI()},
		"WithoutPTI":        {joza.WithoutPTI()},
		"WithStrictPolicy":  {joza.WithStrictPolicy()},
		"WithProfileStrict": {joza.WithProfileStore(joza.NewProfileRecorder().Store()), joza.WithProfileStrict()},
	}
	seen := map[string]string{base: "default"}
	for name, opts := range differ {
		v := version(opts...)
		if prev, dup := seen[v]; dup {
			t.Errorf("%s shares version %s with %s", name, v, prev)
		}
		seen[v] = name
	}
	if lenient, strict := version(joza.WithProfileStore(joza.NewProfileRecorder().Store())),
		version(joza.WithProfileStore(joza.NewProfileRecorder().Store()), joza.WithProfileStrict()); lenient == strict {
		t.Errorf("WithProfileStrict did not change the version of a profiled Guard")
	}

	same := map[string][]joza.Option{
		"WithCacheMode":    {joza.WithCacheMode(joza.CacheNone, 0)},
		"pti.WithMRU":      {joza.WithPTIOptions(pti.WithMRU(8))},
		"WithNaiveMatcher": {joza.WithPTIOptions(pti.WithNaiveMatcher())},
		"WithSellers":      {joza.WithNTIOptions(nti.WithSellersMatcher())},
	}
	for name, opts := range same {
		if v := version(opts...); v != base {
			t.Errorf("%s changed the version (%s, default %s)", name, v, base)
		}
	}
}
