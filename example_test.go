package joza_test

import (
	"context"
	"fmt"

	"joza"
)

// The canonical workflow: extract fragments from the application's source,
// build a guard, check queries with the request's raw inputs.
func Example() {
	fragments := joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`)
	guard, err := joza.New(joza.WithFragments(fragments))
	if err != nil {
		fmt.Println(err)
		return
	}

	ctx := context.Background()
	benign, err := guard.Check(ctx, joza.Request{
		Query:  "SELECT * FROM records WHERE ID=5 LIMIT 5",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("benign attack:", benign.Attack)

	attack, err := guard.Check(ctx, joza.Request{
		Query:  "SELECT * FROM records WHERE ID=-1 OR 1=1 LIMIT 5",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: "-1 OR 1=1"}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tautology attack:", attack.Attack)
	fmt.Println("detected by:", attack.DetectedBy())
	// Output:
	// benign attack: false
	// tautology attack: true
	// detected by: [NTI PTI]
}

// Authorize integrates with error handling: safe queries return nil, blocked
// queries return an *AttackError carrying the verdict and policy.
func ExampleGuard_Authorize() {
	guard, _ := joza.New(
		joza.WithFragments([]string{"SELECT name FROM users WHERE id="}),
		joza.WithPolicy(joza.PolicyErrorVirtualize),
	)
	ctx := context.Background()
	err := guard.Authorize(ctx, joza.Request{Query: "SELECT name FROM users WHERE id=1"})
	fmt.Println("benign:", err)

	err = guard.Authorize(ctx, joza.Request{Query: "SELECT name FROM users WHERE id=1 OR 1=1"})
	fmt.Println("attack:", err)
	// Output:
	// benign: <nil>
	// attack: sql injection blocked by PTI (policy error-virtualization)
}

// FragmentsFromSource extracts the trusted string literals the PTI
// component relies on; interpolation points split format strings.
func ExampleFragmentsFromSource() {
	frags := joza.FragmentsFromSource(`<?php
$q = "SELECT * from users where id = $id and password=$password";`)
	for _, f := range frags {
		fmt.Printf("%q\n", f)
	}
	// Output:
	// "SELECT * from users where id = "
	// " and password="
}

// RenderVerdict draws the paper's figure-style taint markings: '-' for
// negative taint, '+' for positive taint, 'c' under critical tokens.
func ExampleRenderVerdict() {
	guard, _ := joza.New(joza.WithFragments([]string{"SELECT * FROM data WHERE ID="}))
	v, _ := guard.Check(context.Background(), joza.Request{
		Query:  "SELECT * FROM data WHERE ID=-1 OR 1=1",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: "-1 OR 1=1"}},
	})
	fmt.Print(joza.RenderVerdict(v))
	// Output:
	// SELECT * FROM data WHERE ID=-1 OR 1=1
	// ++++++++++++++++++++++++++++---------
	// cccccc c cccc      ccccc   cc  cc  c
}
