package sqlparse

import (
	"strings"
	"testing"

	"joza/internal/sqltoken"
)

func TestParseDialectPostgres(t *testing.T) {
	q := `SELECT "name", age FROM "users" WHERE id = $1 AND bio = E'it\'s'`
	stmt, err := ParseDialect(sqltoken.Postgres, q)
	if err != nil {
		t.Fatalf("ParseDialect(Postgres) error: %v", err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T, want *SelectStmt", stmt)
	}
	if sel.From != "users" {
		t.Errorf(`From = %q, want "users" (quoted identifier must be unwrapped)`, sel.From)
	}
	// Under MySQL rules the same bytes put `"name"` in string position and
	// the parse must fail — quoted identifiers are a dialect property.
	if _, err := Parse(q); err == nil {
		t.Errorf("MySQL Parse accepted Postgres quoted-identifier query")
	}
}

func TestParseDialectStringDecoding(t *testing.T) {
	cases := []struct {
		d    sqltoken.Dialect
		q    string
		want string
	}{
		// MySQL: backslash escapes live inside '…'.
		{sqltoken.MySQL, `SELECT * FROM t WHERE a = 'x\'y'`, "x'y"},
		// Postgres standard_conforming_strings: backslash is a plain byte.
		{sqltoken.Postgres, `SELECT * FROM t WHERE a = 'x\y'`, `x\y`},
		// Postgres E'…' re-enables backslash escapes.
		{sqltoken.Postgres, `SELECT * FROM t WHERE a = E'x\ny'`, "x\ny"},
		// Dollar-quoted bodies are verbatim, including backslashes/quotes.
		{sqltoken.Postgres, `SELECT * FROM t WHERE a = $q$x\'y$q$`, `x\'y`},
		// SQLite: doubled quote is the only escape.
		{sqltoken.SQLite, `SELECT * FROM t WHERE a = 'x''y'`, "x'y"},
	}
	for _, c := range cases {
		stmt, err := ParseDialect(c.d, c.q)
		if err != nil {
			t.Errorf("%s: %q: %v", c.d, c.q, err)
			continue
		}
		sel := stmt.(*SelectStmt)
		bin, ok := sel.Where.(*BinaryExpr)
		if !ok {
			t.Errorf("%s: %q: WHERE is %T, want *BinaryExpr", c.d, c.q, sel.Where)
			continue
		}
		lit, ok := bin.R.(*Literal)
		if !ok || lit.Kind != LitString {
			t.Errorf("%s: %q: rhs is %#v, want string literal", c.d, c.q, bin.R)
			continue
		}
		if lit.Str != c.want {
			t.Errorf("%s: %q: decoded %q, want %q", c.d, c.q, lit.Str, c.want)
		}
	}
}

func TestStructureKeyDialect(t *testing.T) {
	// MySQL delegation: the one-arg form is exactly the MySQL form.
	q := "SELECT * FROM t WHERE a = 'x' AND b = 42"
	if StructureKey(q) != StructureKeyDialect(sqltoken.MySQL, q) {
		t.Fatalf("StructureKey != StructureKeyDialect(MySQL)")
	}

	// The same bytes must yield different skeletons when the dialects
	// disagree on the string/code boundary: a dollar-quoted body is data
	// in Postgres and live tokens in MySQL.
	dq := "SELECT $q$ UNION SELECT pass FROM pg_shadow $q$"
	my := StructureKeyDialect(sqltoken.MySQL, dq)
	pg := StructureKeyDialect(sqltoken.Postgres, dq)
	if my == pg {
		t.Fatalf("MySQL and Postgres skeletons agree on dollar-quoted input: %q", my)
	}
	if !strings.Contains(pg, "$\x00S$") {
		t.Errorf("Postgres skeleton did not blank the dollar-quoted body: %q", pg)
	}
	if !strings.Contains(my, "UNION") {
		t.Errorf("MySQL skeleton should keep UNION as live bytes: %q", my)
	}

	// Number and placeholder handling under Postgres.
	pq := "SELECT a FROM t WHERE a = $1 AND b = 7"
	k := StructureKeyDialect(sqltoken.Postgres, pq)
	if !strings.Contains(k, "$1") || !strings.Contains(k, "\x00N") {
		t.Errorf("Postgres skeleton %q: want verbatim $1 and blanked number", k)
	}
}
