package joza_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"joza"
)

// trainProfiles runs a learning-mode guard over the benign traffic of two
// call sites and returns the frozen store.
func trainProfiles(t *testing.T) *joza.ProfileStore {
	t.Helper()
	rec := joza.NewProfileRecorder()
	g := newGuard(t, joza.WithProfileLearning(rec))
	ctx := context.Background()
	benign := map[string][]string{
		"plugin:records": {
			"SELECT * FROM records WHERE ID=5 LIMIT 5",
			"SELECT * FROM records WHERE ID=123 LIMIT 5",
		},
		"plugin:search": {
			"SELECT * FROM records WHERE title='hello' LIMIT 5",
		},
	}
	for site, qs := range benign {
		for _, q := range qs {
			if _, err := g.CheckContextAt(ctx, site, q, nil); err != nil {
				t.Fatalf("learning check: %v", err)
			}
		}
	}
	return rec.Store()
}

func TestProfileLearningThenEnforcement(t *testing.T) {
	st := trainProfiles(t)
	if st.Sites() != 2 {
		t.Fatalf("trained sites = %d, want 2", st.Sites())
	}

	g := newGuard(t, joza.WithProfileStore(st))
	ctx := context.Background()

	// Benign traffic with parameter drift stays clean.
	v, err := g.CheckContextAt(ctx, "plugin:records", "SELECT * FROM records WHERE ID=9999 LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("benign profiled query flagged: %+v", v)
	}

	// A structural change from a profiled site is an attack even when the
	// payload evades NTI (no inputs) and PTI (vocabulary below).
	v, err = g.CheckContextAt(ctx, "plugin:records", "SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Profile.Attack {
		t.Fatalf("unseen skeleton not flagged by profile stage: %+v", v)
	}
	if !v.Attack {
		t.Error("hybrid verdict must be attack")
	}
	found := false
	for _, by := range v.DetectedBy() {
		if by == "profile" {
			found = true
		}
	}
	if !found {
		t.Errorf("DetectedBy() = %v, want to include profile", v.DetectedBy())
	}

	// An unprofiled site is lenient by default...
	v, err = g.CheckContextAt(ctx, "plugin:brand-new", "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Profile.Attack {
		t.Errorf("unknown site flagged without strict mode: %+v", v.Profile)
	}

	// ...and a check without a site skips the stage entirely.
	v = check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	if v.Profile.Attack {
		t.Errorf("siteless check flagged by profile stage: %+v", v.Profile)
	}
}

func TestProfileStrictMode(t *testing.T) {
	st := trainProfiles(t)
	g := newGuard(t, joza.WithProfileStore(st), joza.WithProfileStrict())
	v, err := g.CheckContextAt(context.Background(), "plugin:untrained", "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Profile.Attack {
		t.Error("strict mode must flag a call site with no training profile")
	}
}

func TestProfileOnlyGuard(t *testing.T) {
	// A guard with both taint analyzers disabled is valid when the profile
	// stage is configured — the ProfileOnly configuration of the detection
	// matrix.
	st := trainProfiles(t)
	g, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(demoSource)),
		joza.WithoutNTI(), joza.WithoutPTI(),
		joza.WithProfileStore(st))
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.CheckContextAt(context.Background(), "plugin:records", "SELECT * FROM records WHERE ID=5 UNION SELECT username, password FROM users LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack || !v.Profile.Attack {
		t.Errorf("profile-only guard missed a skeleton change: %+v", v)
	}
	m := g.Metrics()
	if m.ProfileSites != 2 {
		t.Errorf("Metrics().ProfileSites = %d, want 2", m.ProfileSites)
	}
	if m.ProfileSkeletons == 0 {
		t.Error("Metrics().ProfileSkeletons = 0, want > 0")
	}
}

func TestProfileFileRoundTrip(t *testing.T) {
	st := trainProfiles(t)
	path := filepath.Join(t.TempDir(), "profiles")
	if err := os.WriteFile(path, st.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g := newGuard(t, joza.WithProfileFile(path))
	v, err := g.CheckContextAt(context.Background(), "plugin:records", "SELECT * FROM records WHERE ID=5 -- x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Profile.Attack {
		t.Error("file-loaded profiles did not enforce")
	}

	// A bad file fails construction rather than serving half a profile.
	if err := os.WriteFile(path, []byte("corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(demoSource)), joza.WithProfileFile(path)); err == nil {
		t.Error("New with corrupt profile file succeeded")
	}
}

// TestManagerRefreshCorruptProfileSticky drives the sticky-pending
// contract through the profile path: corrupting the profile file makes the
// next rebuild fail, the manager keeps serving the prior snapshot (old
// profiles still enforcing), and fixing the file heals on a later Refresh
// with no further tree change.
func TestManagerRefreshCorruptProfileSticky(t *testing.T) {
	dir := t.TempDir()
	appFile := filepath.Join(dir, "app.php")
	if err := os.WriteFile(appFile, []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	profPath := filepath.Join(t.TempDir(), "profiles")
	st := trainProfiles(t)
	if err := os.WriteFile(profPath, st.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := joza.NewManager(dir, nil, joza.WithProfileFile(profPath))
	if err != nil {
		t.Fatal(err)
	}
	attack := "SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5"
	ctx := context.Background()
	if v, _ := m.Guard().CheckContextAt(ctx, "plugin:records", attack, nil); !v.Profile.Attack {
		t.Fatal("initial manager guard does not enforce profiles")
	}

	// Corrupt the profile file and change the tree so Refresh rebuilds.
	if err := os.WriteFile(profPath, []byte("corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appFile, []byte(demoSource+"\n$x = 1;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := m.SnapshotVersion()
	if _, err := m.Refresh(); err == nil {
		t.Fatal("Refresh with corrupt profile file must fail")
	}
	if m.SnapshotVersion() != before {
		t.Fatal("failed rebuild swapped the snapshot")
	}
	if v, _ := m.Guard().CheckContextAt(ctx, "plugin:records", attack, nil); !v.Profile.Attack {
		t.Error("prior snapshot stopped enforcing after failed rebuild")
	}

	// Fix the file: the pending rebuild retries without a tree change.
	if err := os.WriteFile(profPath, st.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := m.Refresh()
	if err != nil || !changed {
		t.Fatalf("Refresh after fix = (%v, %v), want (true, nil)", changed, err)
	}
	if v, _ := m.Guard().CheckContextAt(ctx, "plugin:records", attack, nil); !v.Profile.Attack {
		t.Error("refreshed snapshot does not enforce profiles")
	}
}

// TestManagerRefreshReloadsRewrittenProfileFile: a retrained profile file
// deploys on the next Refresh even when no source file changed — the
// same generation contract jozad -watch keeps. The retrained store
// learns a skeleton the first one flags, so the swap shows in verdicts.
func TestManagerRefreshReloadsRewrittenProfileFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "app.php"), []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	profPath := filepath.Join(t.TempDir(), "profiles")
	rec := joza.NewProfileRecorder()
	rec.Record("plugin:records", "SELECT * FROM records WHERE ID=5 LIMIT 5")
	if err := os.WriteFile(profPath, rec.Store().Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := joza.NewManager(dir, nil, joza.WithProfileFile(profPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const newShape = "SELECT title FROM records WHERE ID=5"
	if v, _ := m.Guard().CheckContextAt(ctx, "plugin:records", newShape, nil); !v.Profile.Attack {
		t.Fatal("the first store does not flag a skeleton it never saw")
	}
	before := m.SnapshotVersion()

	rec.Record("plugin:records", newShape)
	if err := os.WriteFile(profPath, rec.Store().Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A later modification time, whatever the file system's clock
	// granularity.
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(profPath, later, later); err != nil {
		t.Fatal(err)
	}
	if changed, err := m.Refresh(); err != nil || !changed {
		t.Fatalf("Refresh after retraining = (%v, %v), want (true, nil)", changed, err)
	}
	if m.SnapshotVersion() == before {
		t.Fatal("the retrained store did not change the snapshot version")
	}
	if v, _ := m.Guard().CheckContextAt(ctx, "plugin:records", newShape, nil); v.Profile.Attack {
		t.Fatal("the retrained skeleton is still flagged after Refresh")
	}
	if changed, err := m.Refresh(); err != nil || changed {
		t.Fatalf("steady-state Refresh = (%v, %v), want (false, nil)", changed, err)
	}
}
