package joza_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"joza"
)

const refreshSrc = `<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`

// TestRefreshRetriesFailedRebuild is the regression test for the
// lost-refresh bug: the installer used to advance its file snapshot before
// the Guard rebuild ran, so a failed rebuild left the old Guard serving
// stale fragments and every later Refresh reported changed=false. The
// pending change must stay sticky until a rebuild succeeds.
func TestRefreshRetriesFailedRebuild(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "app.php")
	if err := os.WriteFile(file, []byte(refreshSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := joza.NewManager(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldVersion := m.SnapshotVersion()
	if m.Guard().FragmentCount() == 0 {
		t.Fatal("initial guard has no fragments")
	}

	// Break the tree: no SQL-bearing fragments left, so the rebuild fails
	// with ErrNoFragments while the installer still sees a change.
	if err := os.WriteFile(file, []byte(`<?php $x = 1;`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(); err == nil {
		t.Fatal("Refresh must surface the rebuild failure")
	}
	if m.SnapshotVersion() != oldVersion {
		t.Fatal("failed rebuild must keep the old snapshot in service")
	}

	// No further tree change: the pending rebuild must be retried (and
	// fail again), not silently dropped with changed=false.
	if changed, err := m.Refresh(); err == nil {
		t.Fatalf("pending rebuild was dropped: changed=%v, err=nil", changed)
	}

	// Fix the tree: the next Refresh must succeed and swap the Guard.
	if err := os.WriteFile(file, []byte(refreshSrc+"\n"+`$q2 = "SELECT name FROM users WHERE uid=";`), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := m.Refresh()
	if err != nil {
		t.Fatalf("recovery refresh failed: %v", err)
	}
	if !changed {
		t.Fatal("recovery refresh must report a swap")
	}
	if m.SnapshotVersion() == oldVersion {
		t.Fatal("snapshot not swapped after recovery")
	}
	if m.Guard().FragmentCount() == 0 {
		t.Fatal("recovered guard has no fragments")
	}
}

// TestRefreshPendingStickyWithoutTreeChange drives the exact lost-update
// interleaving: break, fail, restore the original content (digest differs
// from the broken snapshot, so this is the "next call" the issue names),
// and verify the rebuild is retried and succeeds.
func TestRefreshPendingStickyWithoutTreeChange(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "app.php")
	if err := os.WriteFile(file, []byte(refreshSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := joza.NewManager(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(file); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(); err == nil {
		t.Fatal("empty tree must fail the rebuild")
	}
	if err := os.WriteFile(file, []byte(refreshSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := m.Refresh()
	if err != nil || !changed {
		t.Fatalf("Refresh after restore = (%v, %v), want (true, nil)", changed, err)
	}
	// Steady state again.
	if changed, err := m.Refresh(); err != nil || changed {
		t.Fatalf("steady-state Refresh = (%v, %v), want (false, nil)", changed, err)
	}
}

// TestConcurrentCheckAndRefresh drives parallel Guard.Check traffic
// against concurrent Manager.Refresh swaps and sharded-cache churn; run
// with -race it proves the hot path is data-race free across guard swaps.
func TestConcurrentCheckAndRefresh(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "app.php")
	if err := os.WriteFile(file, []byte(refreshSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	// Tiny cache capacity keeps the shards evicting and promoting under
	// contention.
	m, err := joza.NewManager(dir, nil, joza.WithCacheMode(joza.CacheQueryAndStructure, 64))
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (seed*31 + i) % 200
				q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", id)
				in := []joza.Input{{Source: "get", Name: "id", Value: fmt.Sprint(id)}}
				if check(m.Guard(), q, in).Attack {
					t.Errorf("benign flagged: %s", q)
					return
				}
				if i%50 == seed%50 {
					atk := fmt.Sprintf("SELECT * FROM records WHERE ID=-1 OR %d=%d LIMIT 5", id, id)
					payload := fmt.Sprintf("-1 OR %d=%d", id, id)
					if !check(m.Guard(), atk, []joza.Input{{Source: "get", Name: "id", Value: payload}}).Attack {
						t.Errorf("attack missed: %s", atk)
						return
					}
				}
			}
		}(w)
	}
	// Refresher: alternate the source file to force real rebuild swaps
	// while checks are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			extra := ""
			if i%2 == 1 {
				extra = "\n$q2 = \"SELECT name FROM users WHERE uid=\";"
			}
			if err := os.WriteFile(file, []byte(refreshSrc+extra), 0o644); err != nil {
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
	snap := m.Metrics()
	if snap.Checks == 0 {
		t.Error("metrics recorded no checks")
	}
}
