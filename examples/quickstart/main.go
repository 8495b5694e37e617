// The quickstart example shows the core Joza workflow in one file: extract
// trusted fragments from application source, build a hybrid guard, and
// check benign and malicious queries. It also renders the paper's
// figure-style taint markings (− negative taint, + positive taint,
// c critical token).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"joza"
)

// appSource is the vulnerable PHP program from Section III-B of the paper.
const appSource = `<?php
$postid = $_GET['id'];
$query = "SELECT * FROM records WHERE ID=$postid LIMIT 5";
$result = mysql_query($query);
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Install: extract trusted string fragments from the application.
	fragments := joza.FragmentsFromSource(appSource)
	fmt.Printf("extracted fragments: %q\n\n", fragments)

	// 2. Build the hybrid guard.
	guard, err := joza.New(joza.WithFragments(fragments))
	if err != nil {
		return err
	}

	// 3. Check queries as the application would issue them.
	ctx := context.Background()
	cases := []struct {
		label string
		input string
	}{
		{"benign", "5"},
		{"tautology (Figure 2B)", "-1 OR 1=1"},
		{"union attack (Figure 3B)", "-1 UNION SELECT username()"},
	}
	for _, c := range cases {
		query := "SELECT * FROM records WHERE ID=" + c.input + " LIMIT 5"
		inputs := []joza.Input{{Source: "get", Name: "id", Value: c.input}}
		verdict, err := guard.Check(ctx, joza.Request{Query: query, Inputs: inputs})
		if err != nil {
			return err
		}

		fmt.Printf("=== %s ===\n", c.label)
		fmt.Print(joza.RenderVerdict(verdict))
		if verdict.Attack {
			fmt.Printf("BLOCKED (detected by %s)\n", strings.Join(verdict.DetectedBy(), " and "))
			for _, r := range verdict.Reasons() {
				fmt.Printf("  - %s\n", r)
			}
		} else {
			fmt.Println("allowed")
		}
		fmt.Println()
	}

	// 4. Authorize integrates with error handling and recovery policies.
	err = guard.Authorize(ctx, joza.Request{Query: "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5"})
	fmt.Printf("Authorize on a stored (second-order) attack: %v\n", err)
	return nil
}
