package engine

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"joza/internal/fragments"
	"joza/internal/installer"
	"joza/internal/profile"
	"joza/internal/pti"
)

func writeFile(t *testing.T, path, content string, mod time.Time) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
}

// TestRefresherSwapsEachChangeOnce drives the refresh loop pass by pass,
// with explicit modification times instead of a ticker and sleeps: a
// fragment change, a rewritten profile file, and the retry of a failed
// build each swap exactly once, a failed build keeps the prior snapshot
// and stays pending, and a pass with nothing to do swaps nothing.
func TestRefresherSwapsEachChangeOnce(t *testing.T) {
	dir := t.TempDir()
	app := filepath.Join(dir, "app.php")
	base := time.Now().Add(-time.Hour)
	writeFile(t, app, `<?php $q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`, base)
	rec := profile.NewRecorder()
	rec.Record("app.php:1", "SELECT * FROM records WHERE ID=5 LIMIT 5")
	good := string(rec.Store().Bytes())
	prof := filepath.Join(t.TempDir(), "profiles")
	writeFile(t, prof, good, base)

	ins, err := installer.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRefresher(Spec{NoNTI: true, ProfileFile: prof, CacheMode: pti.CacheQuery, CacheCapacity: 16}, ins)
	serving, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	swap := func(s *Snapshot) {
		swaps++
		serving = s
	}
	pass := func(step string, wantSwap, wantErr bool) {
		t.Helper()
		before, n := serving, swaps
		swapped, err := r.Refresh(swap)
		if (err != nil) != wantErr || swapped != wantSwap || swaps-n != btoi(wantSwap) {
			t.Fatalf("%s: swapped %v (%d swaps), err %v; want swap %v, error %v", step, swapped, swaps-n, err, wantSwap, wantErr)
		}
		if wantSwap && serving.Version == before.Version {
			t.Fatalf("%s: the swapped snapshot kept version %s", step, before.Version)
		}
	}

	pass("nothing changed", false, false)

	writeFile(t, app, `<?php $q = "SELECT * FROM records WHERE ID=$id LIMIT 5"; $r = "SELECT name FROM users";`, base)
	pass("fragment change", true, false)
	if serving.Set.Len() != 3 {
		t.Fatalf("swapped snapshot holds %d fragments, want 3", serving.Set.Len())
	}
	pass("after the fragment change", false, false)

	rec.Record("app.php:1", "SELECT name FROM users")
	retrained := string(rec.Store().Bytes())
	writeFile(t, prof, retrained, base.Add(time.Second))
	pass("profile rewritten", true, false)
	if got := string(serving.Profiles.Bytes()); got != retrained {
		t.Fatal("the swapped snapshot does not serve the rewritten profile file")
	}
	pass("after the profile rewrite", false, false)

	failing := serving
	writeFile(t, prof, "corrupt\n", base.Add(2*time.Second))
	pass("corrupt profile file", false, true)
	pass("retry with nothing changed", false, true)
	if serving != failing {
		t.Fatal("a failed build replaced the serving snapshot")
	}
	// Repair the file under the corrupt file's modification time: only the
	// pending retry can pick it up.
	writeFile(t, prof, good, base.Add(2*time.Second))
	pass("pending retry", true, false)
	pass("after the retry", false, false)
}

// TestRefresherBuildRebuildsWithoutSwap: Build, which the rollout's
// prepare calls, builds the current sources even when nothing changed,
// and swaps nothing.
func TestRefresherBuildRebuildsWithoutSwap(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT * FROM records WHERE ID="})
	r := NewRefresher(Spec{Set: set, NoNTI: true}, nil)
	first, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	next, err := r.Build()
	if err != nil || next == nil || next == first || next.Version != first.Version {
		t.Fatalf("Build = (%p, %v), want a fresh snapshot of version %s", next, err, first.Version)
	}
	if swapped, err := r.Refresh(func(*Snapshot) { t.Fatal("swapped with nothing changed") }); swapped || err != nil {
		t.Fatalf("Refresh = (%v, %v), want (false, nil)", swapped, err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
