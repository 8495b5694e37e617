package testbed

import (
	"context"
	"fmt"

	"joza"
	"joza/internal/webapp"
)

// Dialect-evasion payload classes: attacks on a Postgres-backed
// deployment that a guard lexing under the default MySQL dialect cannot
// see, because MySQL's string rules swallow the injected SQL into a
// literal that Postgres terminates (or never opens):
//
//   - backslash-smuggle: in a quoted context, the input leads with \'.
//     MySQL treats \' as an escaped quote, so the rest of the payload
//     stays inside the string literal; Postgres (standard_conforming_strings,
//     the default since 9.1) treats the backslash as data and the quote
//     closes the string, leaving the tautology or UNION live.
//   - dollar-quote-smuggle: in a numeric context, the input opens a
//     dollar-quoted literal whose body is a single quote, e.g. $q$'$q$.
//     Postgres lexes it as a short string; MySQL has no dollar quoting,
//     reads the interior ' as a string opener, and the rest of the query
//     disappears into an unterminated literal.
const (
	ClassBackslashSmuggle   = "backslash-smuggle"
	ClassDollarQuoteSmuggle = "dollar-quote-smuggle"
)

// DialectEvasionCase is one evaluated payload: the query a vulnerable
// Postgres-backed handler would build, and each guard's verdict on it.
type DialectEvasionCase struct {
	Class   string `json:"class"`
	Payload string `json:"payload"`
	Query   string `json:"query"`
	// MySQLAttack and PostgresAttack are the verdicts of the hybrid guard
	// lexing under each dialect. The evasion claim is MySQLAttack=false,
	// PostgresAttack=true.
	MySQLAttack    bool `json:"mysqlAttack"`
	PostgresAttack bool `json:"postgresAttack"`
}

// DialectEvasionRow aggregates one payload class.
type DialectEvasionRow struct {
	Class          string `json:"class"`
	Cases          int    `json:"cases"`
	MissedMySQL    int    `json:"missedMysql"`
	CaughtPostgres int    `json:"caughtPostgres"`
}

// DialectEvasionResult is the full dialect-evasion sweep: the per-class
// rows, every individual case, and the benign detection-matrix row
// replayed through the MySQL guard to prove the dialect refactor added
// no false positives.
type DialectEvasionResult struct {
	Rows  []DialectEvasionRow  `json:"rows"`
	Cases []DialectEvasionCase `json:"cases"`
	// BenignCases and BenignFPs replay the detection matrix's benign row
	// through the default MySQL hybrid guard; BenignFPs must be zero.
	BenignCases int `json:"benignCases"`
	BenignFPs   int `json:"benignFps"`
}

// dialectEvasionPayloads returns the evaluated payloads per class, each
// paired with the injection context a vulnerable handler would embed it
// in. The contexts reuse the core fragment vocabulary ($q_opt, $q_post),
// so the trusted set needs nothing new and PTI coverage of the benign
// part of each query is realistic.
func dialectEvasionPayloads() []DialectEvasionCase {
	const (
		quotedPrefix  = "SELECT name, value FROM options WHERE name='"
		quotedSuffix  = "'"
		numericPrefix = "SELECT id, title FROM posts WHERE id="
	)
	quoted := func(payload string) DialectEvasionCase {
		return DialectEvasionCase{
			Class:   ClassBackslashSmuggle,
			Payload: payload,
			Query:   quotedPrefix + payload + quotedSuffix,
		}
	}
	numeric := func(payload string) DialectEvasionCase {
		return DialectEvasionCase{
			Class:   ClassDollarQuoteSmuggle,
			Payload: payload,
			Query:   numericPrefix + payload,
		}
	}
	return []DialectEvasionCase{
		quoted(`\' or 1=1 -- `),
		quoted(`\' union select username, password from users -- `),
		quoted(`\'; drop table options -- `),
		numeric(`$q$'$q$ or 1=1 -- `),
		numeric(`$$'$$ or 1=1 -- `),
		numeric(`$q$'$q$ union select username, password from users -- `),
	}
}

// EvaluateDialectEvasion runs the dialect-evasion sweep: every payload
// through the same hybrid analysis under the MySQL and Postgres
// dialects, then the full benign detection-matrix row through the MySQL
// guard. A payload that fails its designed property — missed under
// MySQL, caught under Postgres — is an error, as is any benign false
// positive: both would mean the evasion row no longer demonstrates what
// it claims.
func (l *Lab) EvaluateDialectEvasion() (*DialectEvasionResult, error) {
	pg, err := joza.New(joza.WithFragmentSet(l.Fragments), joza.WithDialect(joza.DialectPostgres))
	if err != nil {
		return nil, fmt.Errorf("build postgres guard: %w", err)
	}

	res := &DialectEvasionResult{}
	rows := map[string]*DialectEvasionRow{}
	for _, c := range dialectEvasionPayloads() {
		inputs := []joza.Input{{Source: "get", Name: "p", Value: c.Payload}}
		// In-process checks under context.Background() cannot fail.
		req := joza.Request{Query: c.Query, Inputs: inputs}
		mv, _ := l.Guard.Check(context.Background(), req)
		pv, _ := pg.Check(context.Background(), req)
		c.MySQLAttack, c.PostgresAttack = mv.Attack, pv.Attack
		if c.MySQLAttack {
			return nil, fmt.Errorf("%s: payload %q is not an evasion: the MySQL guard already flags it", c.Class, c.Payload)
		}
		if !c.PostgresAttack {
			return nil, fmt.Errorf("%s: payload %q escapes the Postgres guard too", c.Class, c.Payload)
		}
		row := rows[c.Class]
		if row == nil {
			row = &DialectEvasionRow{Class: c.Class}
			rows[c.Class] = row
		}
		row.Cases++
		row.MissedMySQL++
		row.CaughtPostgres++
		res.Cases = append(res.Cases, c)
	}
	for _, c := range []string{ClassBackslashSmuggle, ClassDollarQuoteSmuggle} {
		if rows[c] != nil {
			res.Rows = append(res.Rows, *rows[c])
		}
	}

	// The benign detection-matrix row, replayed through the default
	// (MySQL) hybrid: the dialect refactor must not add a single false
	// positive to the 266-case corpus the matrix golden gates.
	st := &storedState{value: secondOrderBenign}
	app := l.buildApp(webapp.WithChecker(l.Guard))
	app.Install(newSecondOrderPlugin(st))
	for _, s := range l.Specs {
		for _, v := range benignTrainingValues(s) {
			page, err := app.Handle(s.Name, l.Request(s, v))
			if err != nil {
				return nil, fmt.Errorf("benign %s: %w", s.Name, err)
			}
			res.BenignCases++
			if page.Blocked {
				res.BenignFPs++
			}
		}
	}
	page, err := app.Handle(secondOrderPlugin, &webapp.Request{Get: map[string]string{"go": "1"}})
	if err != nil {
		return nil, fmt.Errorf("benign %s: %w", secondOrderPlugin, err)
	}
	res.BenignCases++
	if page.Blocked {
		res.BenignFPs++
	}
	if res.BenignFPs > 0 {
		return nil, fmt.Errorf("dialect evasion sweep: %d benign false positives under the MySQL guard", res.BenignFPs)
	}
	return res, nil
}

// FormatDialectEvasion renders the sweep as a text report.
func FormatDialectEvasion(r *DialectEvasionResult) string {
	out := "DIALECT-EVASION ROW: payloads a MySQL-dialect guard cannot see on a Postgres backend\n"
	out += fmt.Sprintf("%-24s %6s %14s %17s\n", "Class", "Cases", "missed(MySQL)", "caught(Postgres)")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-24s %6d %10d/%-3d %13d/%-3d\n",
			row.Class, row.Cases, row.MissedMySQL, row.Cases, row.CaughtPostgres, row.Cases)
	}
	for _, c := range r.Cases {
		out += fmt.Sprintf("  %-22s payload=%q\n", c.Class, c.Payload)
	}
	out += fmt.Sprintf("benign matrix row: %d cases, %d false positives under the MySQL guard\n", r.BenignCases, r.BenignFPs)
	out += "(deploying the guard with the backend's dialect closes both classes; the\n" +
		" MySQL rows of the detection matrix are unchanged — see the seed-lexer differential)\n"
	return out
}
