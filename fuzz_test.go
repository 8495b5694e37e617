package joza_test

import (
	"errors"
	"testing"

	"joza"
	"joza/internal/minidb"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
)

// Native Go fuzz targets. Under plain `go test` they run their seed
// corpus; under `go test -fuzz=FuzzX` they explore. Every target asserts
// the defense-grade invariant: no panic, spans in bounds.

func FuzzLex(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t WHERE id=1",
		"-1 UNION SELECT username, password FROM users -- -",
		"'unterminated",
		"/*unterminated",
		"\\'; DROP TABLE t; --",
		"SELECT `col` FROM `tab` WHERE x LIKE '%y%' #c",
		"\x00\xff\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := sqltoken.Lex(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End > len(s) || tok.Start >= tok.End {
				t.Fatalf("bad span %d:%d in %q", tok.Start, tok.End, s)
			}
			if s[tok.Start:tok.End] != tok.Text {
				t.Fatalf("span/text mismatch at %d:%d in %q", tok.Start, tok.End, s)
			}
			prevEnd = tok.End
		}
	})
}

// FuzzParse parses and keys every input under every dialect: no panic,
// and a syntax error's position lies within the query.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a, b FROM t WHERE a=1 AND b LIKE '%x%' ORDER BY a LIMIT 5",
		"INSERT INTO t (a) VALUES (1), (2)",
		"UPDATE t SET a=1 WHERE b IN (1,2)",
		"SELECT * FROM a JOIN b ON a.id=b.id LEFT JOIN c ON c.x=a.id",
		"SELECT 1 UNION ALL SELECT 2",
		"((((",
		// Broken heads, stacked statements and dialect-specific quoting.
		"SELECT FROM WHERE; DROP TABLE users",
		")) OR (( SELECT secret FROM vault",
		"SELECT 1; SELECT 2; SELECT 3",
		"insert into t (a,b) values (1,'x'); garbage",
		`' UNION SELECT usename FROM pg_user -- `,
		"$q$ SELECT $q$ ; \x00\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, d := range sqltoken.Dialects() {
			_, err := sqlparse.ParseDialect(d, s)
			var se *sqlparse.SyntaxError
			if errors.As(err, &se) && (se.Pos < 0 || se.Pos > len(s)) {
				t.Fatalf("%s: syntax error at byte %d of a %d-byte query", d, se.Pos, len(s))
			}
			_ = sqlparse.StructureKeyDialect(d, s)
		}
	})
}

func FuzzGuardCheck(f *testing.F) {
	guard, err := joza.New(joza.WithFragments([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "5")
	f.Add("SELECT * FROM records WHERE ID=-1 OR 1=1", "-1 OR 1=1")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, query, input string) {
		v := check(guard, query, []joza.Input{{Source: "get", Name: "x", Value: input}})
		// Verdict must be internally consistent.
		if v.Attack != (v.NTI.Attack || v.PTI.Attack) {
			t.Fatal("verdict inconsistent with component results")
		}
	})
}

func FuzzMinidbExec(f *testing.F) {
	db := minidb.New("fuzz")
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	for _, seed := range []string{
		"SELECT * FROM t WHERE a=1 OR 1=1",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*)>0",
		"INSERT INTO t VALUES (3, CONCAT('a', 'b'))",
		"SELECT * FROM t JOIN t ON 1=1",
		"SELECT SLEEP(1), IF(1,2,3)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		_, _ = db.Exec(q) // must not panic
	})
}
