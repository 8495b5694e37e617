package joza_test

import (
	"context"
	"strings"
	"testing"

	"joza"
	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/pti"
)

// TestWithDialectDefaultUnchanged pins the default-stays-MySQL guarantee:
// a guard built without WithDialect behaves bit-identically to one built
// with DialectMySQL.
func TestWithDialectDefaultUnchanged(t *testing.T) {
	plain := newGuard(t)
	explicit := newGuard(t, joza.WithDialect(joza.DialectMySQL))
	if plain.Dialect() != joza.DialectMySQL {
		t.Fatalf("default dialect = %v, want MySQL", plain.Dialect())
	}
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	in := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	if a, b := check(plain, q, in), check(explicit, q, in); a.Attack != b.Attack {
		t.Errorf("default and explicit-MySQL guards disagree: %v vs %v", a.Attack, b.Attack)
	}
}

// TestPostgresGuardCatchesBackslashSmuggle drives the syntax-confusion
// evasion end to end through the public API. The application escapes the
// attacker's quote with a backslash (MySQL-style addslashes); under
// standard_conforming_strings a Postgres server treats the backslash as a
// literal character, so the attacker's quote CLOSES the string and the
// payload goes live — a boundary only the Postgres-dialect guard draws
// correctly.
func TestPostgresGuardCatchesBackslashSmuggle(t *testing.T) {
	// String-context app: the attacker's value lands between quotes the
	// application's own fragments supply.
	const src = `<?php
$name = $_GET['name'];
$query = "SELECT * FROM records WHERE name='$name' LIMIT 5";
$result = pg_query($query);
`
	payload := `a' UNION SELECT usename FROM pg_user -- `
	escaped := strings.ReplaceAll(payload, `'`, `\'`)
	q := "SELECT * FROM records WHERE name='" + escaped + "' LIMIT 5"
	in := []joza.Input{{Source: "get", Name: "name", Value: payload}}

	frags := joza.FragmentsFromSource(src)
	my, err := joza.New(joza.WithFragments(frags))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := joza.New(joza.WithFragments(frags), joza.WithDialect(joza.DialectPostgres))
	if err != nil {
		t.Fatal(err)
	}

	if v := check(my, q, in); v.Attack {
		t.Errorf("MySQL-dialect guard flagged the smuggle (expected miss: the payload hides inside one string): %+v", v.DetectedBy())
	}
	if v := check(pg, q, in); !v.Attack {
		t.Error("Postgres-dialect guard missed the backslash smuggle")
	}
}

// TestRequestDialectRule pins the Request.Dialect rule on both SQL front
// doors, a Postgres Guard and a Postgres RemoteGuard over an in-process
// daemon: a zero Dialect is analyzed under the door's own dialect (the
// backslash smuggle only a Postgres lex catches is caught), the door's
// dialect named explicitly changes nothing, and any other dialect is
// refused fail-closed with no stage run. Both doors must agree.
func TestRequestDialectRule(t *testing.T) {
	frags := joza.FragmentsFromSource(`<?php
$query = "SELECT * FROM records WHERE name='$name' LIMIT 5";`)
	guard, err := joza.New(joza.WithFragments(frags), joza.WithDialect(joza.DialectPostgres))
	if err != nil {
		t.Fatal(err)
	}
	set := fragments.NewSetDialect(joza.DialectPostgres, frags)
	direct := daemon.NewDirect(pti.NewCached(pti.New(set, pti.WithDialect(joza.DialectPostgres)), pti.CacheQueryAndStructure, 64))
	remote := daemon.NewHybridClient(direct, nti.MustNew(nti.WithDialect(joza.DialectPostgres)),
		core.PolicyTerminate, daemon.WithDialect(joza.DialectPostgres))
	defer remote.Close()

	benign := "SELECT * FROM records WHERE name='alice' LIMIT 5"
	payload := `a' UNION SELECT usename FROM pg_user -- `
	smuggle := "SELECT * FROM records WHERE name='" + strings.ReplaceAll(payload, `'`, `\'`) + "' LIMIT 5"
	in := func(v string) []joza.Input { return []joza.Input{{Source: "get", Name: "name", Value: v}} }
	for _, tc := range []struct {
		name           string
		req            joza.Request
		attack, failed bool
	}{
		{"zero dialect, benign", joza.Request{Query: benign, Inputs: in("alice")}, false, false},
		{"zero dialect, smuggle", joza.Request{Query: smuggle, Inputs: in(payload)}, true, false},
		{"door dialect, benign", joza.Request{
			Query:   benign,
			Inputs:  in("alice"),
			Dialect: joza.DialectPostgres,
		}, false, false},
		{"door dialect, smuggle", joza.Request{
			Query:   smuggle,
			Inputs:  in(payload),
			Dialect: joza.DialectPostgres,
		}, true, false},
		{"other dialect", joza.Request{
			Query:   benign,
			Inputs:  in("alice"),
			Dialect: joza.DialectSQLite,
		}, true, true},
	} {
		for _, door := range []struct {
			name string
			c    joza.Checker
		}{{"guard", guard}, {"remote", remote}} {
			v, err := door.c.Check(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, door.name, err)
			}
			if v.Attack != tc.attack || v.Failed != tc.failed {
				t.Errorf("%s, %s: attack=%v failed=%v, want attack=%v failed=%v (%v)",
					tc.name, door.name, v.Attack, v.Failed, tc.attack, tc.failed, v.Reasons())
			}
		}
	}
}

// TestPostgresGuardBenignTraffic guards against dialect-induced false
// positives: idiomatic Postgres queries must stay clean under the
// Postgres-dialect guard.
func TestPostgresGuardBenignTraffic(t *testing.T) {
	pg := newGuard(t, joza.WithDialect(joza.DialectPostgres))
	for _, q := range []string{
		"SELECT * FROM records WHERE ID=5 LIMIT 5",
		"SELECT * FROM records WHERE ID=$1 LIMIT 5",
	} {
		if v := check(pg, q, []joza.Input{{Source: "get", Name: "id", Value: "5"}}); v.Attack {
			t.Errorf("benign Postgres query flagged: %q (%v)", q, v.DetectedBy())
		}
	}
}

// TestWithDialectValidation pins configuration-error handling: invalid
// dialect values and cross-dialect profile stores must fail construction,
// not silently misanalyze.
func TestWithDialectValidation(t *testing.T) {
	if _, err := joza.New(joza.WithDialect(joza.Dialect(99)),
		joza.WithFragments(joza.FragmentsFromSource(demoSource))); err == nil {
		t.Error("New accepted an invalid dialect")
	}

	// A MySQL-trained profile store must be rejected by a Postgres guard.
	rec := joza.NewProfileRecorder()
	rec.Record("site", "SELECT 1")
	if _, err := joza.New(
		joza.WithDialect(joza.DialectPostgres),
		joza.WithFragments(joza.FragmentsFromSource(demoSource)),
		joza.WithProfileStore(rec.Store()),
	); err == nil || !strings.Contains(err.Error(), "dialect") {
		t.Errorf("cross-dialect profile store accepted (err = %v)", err)
	}

	// A recorder of the wrong dialect must be rejected too.
	if _, err := joza.New(
		joza.WithDialect(joza.DialectPostgres),
		joza.WithFragments(joza.FragmentsFromSource(demoSource)),
		joza.WithProfileLearning(joza.NewProfileRecorder()),
	); err == nil || !strings.Contains(err.Error(), "dialect") {
		t.Errorf("cross-dialect recorder accepted (err = %v)", err)
	}

	// Matched dialects construct fine.
	if _, err := joza.New(
		joza.WithDialect(joza.DialectPostgres),
		joza.WithFragments(joza.FragmentsFromSource(demoSource)),
		joza.WithProfileLearning(joza.NewProfileRecorderDialect(joza.DialectPostgres)),
	); err != nil {
		t.Errorf("matched-dialect learning guard failed: %v", err)
	}
}

// TestParseDialectReExport sanity-checks the flag-plumbing helper.
func TestParseDialectReExport(t *testing.T) {
	d, err := joza.ParseDialect("pg")
	if err != nil || d != joza.DialectPostgres {
		t.Errorf("ParseDialect(pg) = %v, %v", d, err)
	}
	if _, err := joza.ParseDialect("oracle"); err == nil {
		t.Error("ParseDialect accepted oracle")
	}
}
