// The secondorder example demonstrates PTI's input-independence (Section
// III-B): attacks whose payload does not come from the current request —
// a stored (second-order) injection replayed from the database, and a
// payload assembled from multiple harmless-looking inputs — defeat any
// input-correlation defense (NTI), but PTI flags them because the critical
// tokens do not originate from the program's own string fragments.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"joza"
	"joza/internal/minidb"
)

const appSource = `<?php
$q1 = 'INSERT INTO profiles (id, nickname) VALUES (';
$q1b = ', \'';
$q1c = '\')';
$q2 = 'SELECT id, nickname FROM profiles WHERE nickname=\'';
$q2b = '\'';
$q3 = 'SELECT * FROM data WHERE ID=';
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db := minidb.New("app")
	db.MustExec("CREATE TABLE profiles (id INT, nickname TEXT)")
	db.MustExec("CREATE TABLE data (id INT, payload TEXT)")
	db.MustExec("INSERT INTO data VALUES (1, 'alpha'), (2, 'beta')")

	guard, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(appSource)))
	if err != nil {
		return err
	}

	ctx := context.Background()
	fmt.Println("=== second-order injection ===")
	// Request 1: the attacker stores a payload. It is inert here (it sits
	// inside a string literal), so storing it is legitimately allowed.
	stored := "x' OR 1=1 -- "
	insert := "INSERT INTO profiles (id, nickname) VALUES (7, '" + escape(stored) + "')"
	if err := guard.Authorize(ctx, joza.Request{Query: insert, Inputs: []joza.Input{
		{Source: "post", Name: "nickname", Value: stored},
	}}); err != nil {
		return fmt.Errorf("storing the (inert) payload should be allowed: %w", err)
	}
	if _, err := db.Exec(insert); err != nil {
		return err
	}
	fmt.Printf("request 1: stored nickname %q (allowed — payload is data here)\n", stored)

	// Request 2 (much later): the application reads the nickname back and
	// uses it unescaped. This request's inputs are unrelated to the
	// payload, so NTI is blind — but PTI catches it.
	row, err := db.Exec("SELECT nickname FROM profiles WHERE id=7")
	if err != nil {
		return err
	}
	nickname, _ := row.Rows[0][0].(string)
	vulnerable := "SELECT id, nickname FROM profiles WHERE nickname='" + nickname + "'"
	verdict, err := guard.Check(ctx, joza.Request{Query: vulnerable, Inputs: []joza.Input{
		{Source: "get", Name: "page", Value: "profile"},
	}})
	if err != nil {
		return err
	}
	fmt.Printf("request 2: query %q\n", vulnerable)
	fmt.Printf("  NTI detected: %v (inputs unrelated to payload)\n", verdict.NTI.Attack)
	fmt.Printf("  PTI detected: %v (OR / -- not program fragments)\n", verdict.PTI.Attack)
	fmt.Printf("  hybrid: attack=%v\n\n", verdict.Attack)
	if !verdict.Attack || verdict.NTI.Attack {
		return fmt.Errorf("unexpected second-order verdict: %+v", verdict.DetectedBy())
	}

	fmt.Println("=== payload construction from multiple inputs ===")
	// Section III-A: three innocuous inputs concatenate into an attack.
	// NTI cannot combine markings from different inputs; PTI flags the
	// assembled critical tokens.
	q1, q2, q3 := "1 OR 1=1", "R TR", "UE"
	_ = q1
	assembled := "SELECT * FROM data WHERE ID=1 OR TRUE"
	verdict, err = guard.Check(ctx, joza.Request{Query: assembled, Inputs: []joza.Input{
		{Source: "get", Name: "q1", Value: "1 OR 1=1"},
		{Source: "get", Name: "q2", Value: q2},
		{Source: "get", Name: "q3", Value: q3},
	}})
	if err != nil {
		return err
	}
	fmt.Printf("query: %q\n", assembled)
	fmt.Printf("  NTI detected: %v\n", verdict.NTI.Attack)
	fmt.Printf("  PTI detected: %v\n", verdict.PTI.Attack)
	fmt.Printf("  hybrid: attack=%v\n", verdict.Attack)
	if !verdict.Attack {
		return fmt.Errorf("payload-construction attack missed")
	}
	fmt.Println("\nboth input-independent attacks blocked by the hybrid")
	return nil
}

// escape models the application's addslashes-on-store behaviour.
func escape(s string) string {
	return strings.ReplaceAll(s, "'", `\'`)
}
