package engine

import (
	"context"
	"strings"
	"testing"

	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

func TestComputeVersionDeterministicAndShaped(t *testing.T) {
	spec := Spec{Set: fragments.NewSet([]string{"SELECT a FROM t WHERE id=", " LIMIT "})}
	v1 := ComputeVersion(spec, nil)
	v2 := ComputeVersion(spec, nil)
	if v1 != v2 {
		t.Fatalf("same inputs gave %q and %q", v1, v2)
	}
	if len(v1) != VersionLen {
		t.Fatalf("version %q has length %d, want %d", v1, len(v1), VersionLen)
	}
	if strings.Trim(v1, "0123456789abcdef") != "" {
		t.Fatalf("version %q is not lowercase hex", v1)
	}
}

func TestComputeVersionOrderInsensitiveOverFragments(t *testing.T) {
	a := fragments.NewSet([]string{"SELECT a FROM t WHERE id=", " LIMIT ", "DELETE FROM t WHERE id="})
	b := fragments.NewSet([]string{" LIMIT ", "DELETE FROM t WHERE id=", "SELECT a FROM t WHERE id="})
	if va, vb := ComputeVersion(Spec{Set: a}, nil), ComputeVersion(Spec{Set: b}, nil); va != vb {
		t.Fatalf("extraction order changed the version: %q vs %q", va, vb)
	}
}

// TestComputeVersionSensitivity: every input that changes what the
// pipeline decides must change the version — fragments, profile store,
// strict profiles, dialect, enabled stages, NTI threshold, strict policy
// and each of the four limits — while nil set/store hash as empty, and
// the verdict-neutral cache settings and analyzer options do not count.
func TestComputeVersionSensitivity(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT a FROM t WHERE id="})
	rec := profile.NewRecorderDialect(sqltoken.MySQL)
	rec.Record("app.php:10", "SELECT a FROM t WHERE id=5")
	base := Spec{Set: set, Threshold: 0.2}
	with := func(edit func(*Spec)) string {
		spec := base
		edit(&spec)
		return ComputeVersion(spec, nil)
	}

	variants := map[string]string{
		"fragment added": with(func(s *Spec) {
			s.Set = fragments.NewSet([]string{"SELECT a FROM t WHERE id=", " OR name="})
		}),
		"profiles trained":    ComputeVersion(base, rec.Store()),
		"dialect changed":     with(func(s *Spec) { s.Dialect = sqltoken.Postgres }),
		"PTI off":             with(func(s *Spec) { s.NoPTI = true }),
		"NTI off":             with(func(s *Spec) { s.NoNTI = true }),
		"threshold changed":   with(func(s *Spec) { s.Threshold = 0.3 }),
		"strict policy":       with(func(s *Spec) { s.StrictPolicy = true }),
		"strict profiles":     with(func(s *Spec) { s.StrictProfiles = true }),
		"query bytes limited": with(func(s *Spec) { s.Limits.MaxQueryBytes = 4096 }),
		"input bytes limited": with(func(s *Spec) { s.Limits.MaxInputBytes = 4096 }),
		"DP cells limited":    with(func(s *Spec) { s.Limits.NTIDPCells = 4096 }),
		"PTI tokens limited":  with(func(s *Spec) { s.Limits.PTITokens = 4096 }),
		"nil set":             with(func(s *Spec) { s.Set = nil }),
	}
	seen := map[string]string{ComputeVersion(base, nil): "base"}
	for name, v := range variants {
		if prev, dup := seen[v]; dup {
			t.Errorf("%s collides with %s: %q", name, prev, v)
		}
		seen[v] = name
	}
	neutral := with(func(s *Spec) {
		s.CacheMode, s.CacheCapacity = pti.CacheNone, 7
		s.PTIOptions = []pti.Option{pti.WithNaiveMatcher()}
		s.NTIOptions = []nti.Option{nti.WithSellersMatcher()}
	})
	if neutral != ComputeVersion(base, nil) {
		t.Errorf("cache settings or analyzer options changed the version")
	}
}

func TestComputeVersionNilInputsStable(t *testing.T) {
	v1 := ComputeVersion(Spec{}, nil)
	v2 := ComputeVersion(Spec{}, nil)
	if v1 != v2 || len(v1) != VersionLen {
		t.Fatalf("nil inputs not stable: %q vs %q", v1, v2)
	}
}

// TestSnapshotVersionStampedOnVerdicts: a versioned snapshot stamps its
// version on every verdict it serves; an unversioned one leaves the field
// empty — pre-versioning callers see the exact struct they always did.
func TestSnapshotVersionStampedOnVerdicts(t *testing.T) {
	eng := New(&Snapshot{Version: "feedfacefeedface"})
	v, err := eng.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != "feedfacefeedface" {
		t.Fatalf("verdict version = %q, want the snapshot's", v.Version)
	}
	unversioned := New(&Snapshot{})
	uv, err := unversioned.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if uv.Version != "" {
		t.Fatalf("unversioned snapshot stamped %q", uv.Version)
	}
}
