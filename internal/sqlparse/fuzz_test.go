package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"joza/internal/sqltoken"
)

// TestParseNeverPanics feeds arbitrary strings to the parser: it must
// return a statement or a *SyntaxError, never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanicsOnTokenSoup stresses the parser with SQL-shaped
// random token sequences.
func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "UNION", "ALL",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
		"TABLE", "DROP", "ORDER", "BY", "GROUP", "HAVING", "LIMIT",
		"BETWEEN", "IN", "IS", "NULL", "LIKE", "AS", "DISTINCT",
		"(", ")", ",", ";", ".", "*", "=", "<", ">", "<=", ">=", "<>",
		"+", "-", "/", "%", "t", "a", "b", "'s'", "\"d\"", "`q`",
		"1", "2.5", "0x1F", "?", ":x", "@v", "--", "#c", "/*c*/",
	}
	for i := 0; i < 3000; i++ {
		n := rng.Intn(18)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		_, _ = Parse(strings.Join(parts, " "))
	}
}

// TestStructureKeyProperties checks StructureKey invariants over random
// input: deterministic, and stable under number-value substitution.
func TestStructureKeyProperties(t *testing.T) {
	deterministic := func(s string) bool {
		return StructureKey(s) == StructureKey(s)
	}
	if err := quick.Check(deterministic, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error("determinism:", err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		a := rng.Intn(1 << 16)
		b := rng.Intn(1 << 16)
		const tmpl = "SELECT x FROM t WHERE id=@@ AND y<@@"
		qa := strings.ReplaceAll(tmpl, "@@", itoa(a))
		qb := strings.ReplaceAll(tmpl, "@@", itoa(b))
		if StructureKey(qa) != StructureKey(qb) {
			t.Fatalf("keys differ for %q vs %q", qa, qb)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// structureKeyBuilder is the strings.Builder rendering StructureKeyTokens
// had before the append form, kept as the oracle of FuzzStructureKeyAppend.
func structureKeyBuilder(query string, toks []sqltoken.Token) string {
	var sb strings.Builder
	sb.Grow(len(query))
	pos := 0
	for _, t := range toks {
		sb.WriteString(query[pos:t.Start])
		switch t.Kind {
		case sqltoken.KindNumber:
			sb.WriteString("\x00N")
		case sqltoken.KindString:
			sb.WriteByte(query[t.Start])
			sb.WriteString("\x00S")
			if !t.Unterminated {
				sb.WriteByte(query[t.End-1])
			}
		default:
			sb.WriteString(t.Text)
		}
		pos = t.End
	}
	sb.WriteString(query[pos:])
	return sb.String()
}

// FuzzStructureKeyAppend: under every dialect, the key AppendStructureKey
// appends, and StructureKeyTokens returns, is the oracle's, and the bytes
// already in the buffer stay as they were.
func FuzzStructureKeyAppend(f *testing.F) {
	for _, q := range []string{
		"",
		"SELECT * FROM t WHERE id = 5 AND name = 'x'",
		"INSERT INTO comments (post_id, author, body) VALUES (859, 'tellus', 'notes \\' morning')",
		"SELECT 'unterminated",
		"SELECT $$dollar$$, \"dq\", `bt` FROM t -- trailing",
		"SELECT 0x1F, 2.5e3, .5 FROM t /* c */ LIMIT 5",
		"SELECT '" + strings.Repeat("long ", 80) + "' FROM t WHERE id=" + strings.Repeat("9", 300),
	} {
		f.Add(q, "prefix")
	}
	f.Fuzz(func(t *testing.T, q, prefix string) {
		for _, d := range sqltoken.Dialects() {
			toks := d.Lex(q)
			want := structureKeyBuilder(q, toks)
			if got := StructureKeyTokens(q, toks); got != want {
				t.Fatalf("%s %q: StructureKeyTokens %q, want %q", d, q, got, want)
			}
			got := AppendStructureKey([]byte(prefix), q, toks)
			if string(got[:len(prefix)]) != prefix || string(got[len(prefix):]) != want {
				t.Fatalf("%s %q: appended %q after %q, want %q", d, q, got[len(prefix):], prefix, want)
			}
		}
	})
}
