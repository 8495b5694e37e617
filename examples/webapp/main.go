// The webapp example runs the full application stack: a WordPress-like
// mini framework with magic quotes, a vulnerable plugin, an in-memory SQL
// database, and Joza installed as the query gate. It demonstrates the
// complementary hybrid in action — an attack mutated to evade NTI (quote
// stuffing against magic quotes) is caught by PTI, and a payload rebuilt
// from the application's own vocabulary (evading PTI) is caught by NTI.
package main

import (
	"fmt"
	"log"
	"strings"

	"joza"
	"joza/internal/evasion"
	"joza/internal/fragments"
	"joza/internal/minidb"
	"joza/internal/webapp"
)

const pluginSource = `<?php
/* Plugin: gallery-search */
$id = $_GET['id'];
$q = 'SELECT id, title FROM photos WHERE album=' . $id . ' LIMIT 10';
$res = mysql_query($q);
/* dynamic filter vocabulary */
$or = ' or ';
$eq = '=';
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db := minidb.New("gallery")
	db.MustExec("CREATE TABLE photos (id INT, album INT, title TEXT)")
	db.MustExec("INSERT INTO photos VALUES (1, 1, 'sunrise'), (2, 1, 'beach'), (3, 2, 'secret-draft')")

	plugin := &webapp.Plugin{
		Name:   "gallery-search",
		Source: pluginSource,
		Handle: func(c *webapp.Ctx) (string, error) {
			res, err := c.Query("SELECT id, title FROM photos WHERE album=" + c.Get("id") + " LIMIT 10")
			if err != nil {
				return "", err
			}
			return webapp.RenderRows(res), nil
		},
	}

	// Unprotected app to demonstrate the attacks actually work.
	plain := webapp.NewApp(db, webapp.WithTransforms(webapp.TrimWhitespace, webapp.MagicQuotes))
	plain.Install(plugin)

	// Protected app: fragments extracted from the installed sources.
	guard, err := joza.New(joza.WithFragments(plain.FragmentTexts()))
	if err != nil {
		return err
	}
	protected := webapp.NewApp(db,
		webapp.WithTransforms(webapp.TrimWhitespace, webapp.MagicQuotes),
		webapp.WithChecker(guard))
	protected.Install(plugin)

	show := func(label, payload string) error {
		req := &webapp.Request{Get: map[string]string{"id": payload}}
		unsafe, err := plain.Handle("gallery-search", req)
		if err != nil {
			return err
		}
		safe, err := protected.Handle("gallery-search", req)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s ===\n", label)
		fmt.Printf("payload:     %q\n", payload)
		fmt.Printf("unprotected: %d rows%s\n", unsafe.Rows, leakNote(unsafe))
		if safe.Blocked {
			fmt.Println("protected:   BLOCKED (blank page, terminate policy)")
		} else {
			fmt.Printf("protected:   %d rows\n", safe.Rows)
		}
		fmt.Println()
		return nil
	}

	if err := show("benign request", "1"); err != nil {
		return err
	}
	if err := show("tautology exploit", "-1 OR 1=1"); err != nil {
		return err
	}

	// NTI evasion: quote stuffing rides on the app's magic quotes.
	stuffed := evasion.QuoteStuffing("-1 OR 1=1", 0.20)
	if err := show("NTI-evading exploit (quote stuffing)", stuffed); err != nil {
		return err
	}

	// PTI evasion: Taintless rebuilds the payload from the app vocabulary.
	set := fragments.NewSet(plain.FragmentTexts())
	tl := evasion.NewTaintless(set)
	rebuilt, ok := tl.Evade("1 OR 1=1")
	fmt.Printf("Taintless rewrite succeeded: %v\n\n", ok)
	if err := show("PTI-evading exploit (Taintless)", rebuilt); err != nil {
		return err
	}

	fmt.Println("every working exploit form was blocked by the hybrid")
	return nil
}

func leakNote(p *webapp.Page) string {
	if strings.Contains(p.Body, "secret-draft") {
		return " (LEAKED the other album's photo!)"
	}
	return ""
}
