package joza_test

import (
	"testing"

	"joza"
)

// The advanced-search pattern of Section II: the application passes a
// field name through user input. The pragmatic (default) policy allows
// it; the strict Ray–Ligatti-style policy does not.
const searchAppSource = `<?php
$field = $_GET['sort'];
$q = 'SELECT id, title FROM posts ORDER BY ' . $field . ' LIMIT 10';
`

func TestPragmaticPolicyAllowsFieldNames(t *testing.T) {
	g, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(searchAppSource)))
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT id, title FROM posts ORDER BY views LIMIT 10"
	v := check(g, q, []joza.Input{{Source: "get", Name: "sort", Value: "views"}})
	if v.Attack {
		t.Errorf("pragmatic policy must allow input-supplied field names: %v", v.Reasons())
	}
}

func TestStrictPolicyFlagsFieldNames(t *testing.T) {
	g, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(searchAppSource)),
		joza.WithStrictPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT id, title FROM posts ORDER BY views LIMIT 10"
	v := check(g, q, []joza.Input{{Source: "get", Name: "sort", Value: "views"}})
	if !v.Attack {
		t.Fatal("strict policy must flag input-supplied field names")
	}
	// Both analyzers flag: NTI because the identifier derives from input,
	// PTI because "views" is not a program fragment.
	if !v.NTI.Attack {
		t.Error("NTI should flag under strict policy")
	}
	if !v.PTI.Attack {
		t.Error("PTI should flag under strict policy")
	}
}

func TestStrictPolicyStillAllowsProgramIdentifiers(t *testing.T) {
	g, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(searchAppSource)),
		joza.WithStrictPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	// A query built entirely from program text: identifiers are covered
	// by the program's own fragments, and no input matches.
	q := "SELECT id, title FROM posts ORDER BY "
	// Complete it the way the program would with a *constant* — the
	// constant must come from program text too; reuse the fragment tail.
	q += "id LIMIT 10"
	// "id" appears inside the fragment "SELECT id, title FROM posts
	// ORDER BY " — but coverage must be a single occurrence containing
	// the token; the trailing "id" is a separate occurrence of the
	// substring "id" inside that fragment's text, which occurs at
	// "SELECT id". PTI coverage works on the query bytes: the fragment
	// occurs at position 0 and covers only its own span, so the trailing
	// "id" is uncovered — but identifiers uncovered by fragments are only
	// attacks under strict policy, and here PTI is strict. Expect attack.
	v := check(g, q, nil)
	if !v.PTI.Attack {
		t.Error("strict PTI must flag identifiers outside fragments")
	}

	// A fully covered strict query: every byte from one fragment.
	g2, err := joza.New(
		joza.WithFragments([]string{"SELECT id, title FROM posts ORDER BY views LIMIT 10"}),
		joza.WithStrictPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	v = check(g2, "SELECT id, title FROM posts ORDER BY views LIMIT 10", nil)
	if v.Attack {
		t.Errorf("fully program-originated query flagged under strict policy: %v", v.Reasons())
	}
}

func TestStrictPolicyCatchesColumnExfiltration(t *testing.T) {
	// The attack the strict policy exists for: swapping the sort column
	// for a sensitive one. Pragmatically "password" is just a field name;
	// strictly it is an attack.
	src := `<?php
$q = 'SELECT id, title FROM posts ORDER BY ' . $_GET['sort'];
$q2 = 'SELECT username, password FROM users WHERE id=';
`
	pragmatic, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(src)))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(src)),
		joza.WithStrictPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT id, title FROM posts ORDER BY secretcol"
	inputs := []joza.Input{{Source: "get", Name: "sort", Value: "secretcol"}}
	if check(pragmatic, q, inputs).Attack {
		t.Error("pragmatic policy should permit the field name")
	}
	if !check(strict, q, inputs).Attack {
		t.Error("strict policy should flag the field name")
	}
}
