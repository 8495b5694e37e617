package sqltoken

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// seedKeywords and seedFunctions are verbatim copies of the single shared
// tables the lexer shipped with before the per-dialect split. The MySQL
// dialect must keep recognizing exactly this vocabulary — not one word
// more or less — so every historical corpus classifies byte-identically.
var seedKeywords = []string{
	"ADD", "ALL", "ALTER", "AND", "AS", "ASC", "BEGIN", "BETWEEN", "BY",
	"CASE", "COLLATE", "COLUMN", "COMMIT", "CREATE", "CROSS", "DATABASE",
	"DEFAULT", "DELETE", "DESC", "DISTINCT", "DROP", "ELSE", "END",
	"ESCAPE", "EXISTS", "FALSE", "FROM", "FULL", "GROUP", "HAVING", "IF",
	"IN", "INDEX", "INNER", "INSERT", "INTO", "IS", "JOIN", "KEY", "LEFT",
	"LIKE", "LIMIT", "NOT", "NULL", "OFFSET", "ON", "OR", "ORDER", "OUTER",
	"PRIMARY", "PROCEDURE", "REGEXP", "RIGHT", "ROLLBACK", "SELECT", "SET",
	"TABLE", "THEN", "TRUE", "TRUNCATE", "UNION", "UNIQUE", "UPDATE",
	"VALUES", "WHEN", "WHERE", "XOR", "DIV", "MOD", "RLIKE", "SOUNDS",
	"BINARY", "USING", "NATURAL", "INTERVAL", "PARTITION", "EXEC",
	"EXECUTE", "PREPARE", "DEALLOCATE", "GRANT", "REVOKE", "REPLACE",
	"LOAD", "OUTFILE", "DUMPFILE", "INFILE", "HANDLER", "CAST", "CONVERT",
}

var seedFunctions = []string{
	"ABS", "ASCII", "AVG", "BENCHMARK", "BIN", "CEIL", "CEILING", "CHAR",
	"CHAR_LENGTH", "CHARACTER_LENGTH", "COALESCE", "CONCAT", "CONCAT_WS",
	"CONNECTION_ID", "COUNT", "CURDATE", "CURRENT_DATE", "CURRENT_TIME",
	"CURRENT_TIMESTAMP", "CURRENT_USER", "CURTIME", "DATABASE", "DATE",
	"DATE_ADD", "DATE_FORMAT", "DATE_SUB", "DAY", "ELT", "EXP", "EXTRACT",
	"EXTRACTVALUE", "FIELD", "FIND_IN_SET", "FLOOR", "FORMAT", "FOUND_ROWS",
	"GREATEST", "GROUP_CONCAT", "HEX", "HOUR", "IF", "IFNULL", "INSTR",
	"LAST_INSERT_ID", "LCASE", "LEAST", "LEFT", "LENGTH", "LOAD_FILE",
	"LOCATE", "LOWER", "LPAD", "LTRIM", "MAKE_SET", "MAX", "MD5", "MID",
	"MIN", "MINUTE", "MONTH", "NOW", "NULLIF", "OCT", "ORD", "PASSWORD",
	"PI", "POSITION", "POW", "POWER", "QUOTE", "RAND", "REPEAT", "REPLACE",
	"REVERSE", "RIGHT", "ROUND", "ROW_COUNT", "RPAD", "RTRIM", "SCHEMA",
	"SECOND", "SESSION_USER", "SHA", "SHA1", "SHA2", "SIGN", "SLEEP",
	"SPACE", "SQRT", "STRCMP", "SUBSTR", "SUBSTRING", "SUBSTRING_INDEX",
	"SUM", "SYSDATE", "SYSTEM_USER", "TRIM", "TRUNCATE", "UCASE", "UNHEX",
	"UNIX_TIMESTAMP", "UPDATEXML", "UPPER", "USER", "USERNAME", "UUID",
	"VERSION", "WEEK", "YEAR",
}

func TestMySQLVocabularyMatchesSeed(t *testing.T) {
	check := func(label string, got, want []string) {
		t.Helper()
		for _, w := range want {
			if !slices.Contains(got, w) {
				t.Errorf("%s: seed word %q missing from MySQL table", label, w)
			}
		}
		for _, w := range got {
			if !slices.Contains(want, w) {
				t.Errorf("%s: MySQL table gained %q, not in the seed table", label, w)
			}
		}
	}
	check("keywords", mysqlKeywords, seedKeywords)
	check("functions", mysqlFunctions, seedFunctions)
}

func TestSharedBaseHasNoSeedingLeaks(t *testing.T) {
	// USERNAME is no dialect's function; it must survive only in the
	// MySQL delta (seed compatibility) and nowhere else.
	if slices.Contains(baseFunctions, "USERNAME") {
		t.Error("USERNAME leaked into the shared base function table")
	}
	if !MySQL.IsBuiltinFunction("username") {
		t.Error("MySQL must keep USERNAME for seed compatibility")
	}
	for _, d := range []Dialect{Postgres, SQLite} {
		if d.IsBuiltinFunction("username") {
			t.Errorf("%s inherited the USERNAME seeding leak", d)
		}
	}
	// Every shared word must be visible through every dialect.
	for _, w := range baseKeywords {
		for _, d := range Dialects() {
			if !d.IsKeyword(w) {
				t.Errorf("base keyword %q missing from %s", w, d)
			}
		}
	}
	for _, w := range baseFunctions {
		for _, d := range Dialects() {
			if !d.IsBuiltinFunction(w) {
				t.Errorf("base function %q missing from %s", w, d)
			}
		}
	}
}

// TestCastOperatorRegression pins the `::` fix. The seed lexer produced
// [ident "a"] [invalid ":"] [placeholder ":text"] for `a::text` — the
// second colon started a named placeholder, so a Postgres cast smuggled a
// fake placeholder token into every analyzer. `::` is now one cast
// operator in every dialect.
func TestCastOperatorRegression(t *testing.T) {
	for _, d := range Dialects() {
		toks := d.Lex("a::text")
		want := []struct {
			kind Kind
			text string
		}{
			{KindIdent, "a"},
			{KindOperator, "::"},
			{KindIdent, "text"},
		}
		if len(toks) != len(want) {
			t.Fatalf("%s: Lex(a::text) = %v %v, want 3 tokens", d, kinds(toks), texts(toks))
		}
		for i, w := range want {
			if toks[i].Kind != w.kind || toks[i].Text != w.text {
				t.Errorf("%s: token %d = (%v, %q), want (%v, %q)",
					d, i, toks[i].Kind, toks[i].Text, w.kind, w.text)
			}
		}
		// The seed bug must stay dead: no placeholder token anywhere.
		for _, tok := range toks {
			if tok.Kind == KindPlaceholder || tok.Kind == KindInvalid {
				t.Errorf("%s: seed mis-lex resurfaced: %v %q", d, tok.Kind, tok.Text)
			}
		}
	}
}

// TestDollarPlaceholderByDialect pins that `$1` stays an identifier in
// MySQL ('$' is an ident-start byte there — unchanged seed behavior) while
// Postgres and SQLite lex it as a placeholder.
func TestDollarPlaceholderByDialect(t *testing.T) {
	q := "SELECT * FROM t WHERE id = $1"
	last := func(d Dialect) Token {
		toks := d.Lex(q)
		return toks[len(toks)-1]
	}
	if tok := last(MySQL); tok.Kind != KindIdent || tok.Text != "$1" {
		t.Errorf("MySQL: $1 = (%v, %q), want (ident, $1) — seed behavior must not change", tok.Kind, tok.Text)
	}
	for _, d := range []Dialect{Postgres, SQLite} {
		if tok := last(d); tok.Kind != KindPlaceholder || tok.Text != "$1" {
			t.Errorf("%s: $1 = (%v, %q), want (placeholder, $1)", d, tok.Kind, tok.Text)
		}
	}
	// Multi-digit and mid-query forms.
	toks := Postgres.Lex("INSERT INTO t (a, b) VALUES ($1, $23)")
	var ph []string
	for _, tok := range toks {
		if tok.Kind == KindPlaceholder {
			ph = append(ph, tok.Text)
		}
	}
	if !reflect.DeepEqual(ph, []string{"$1", "$23"}) {
		t.Errorf("postgres placeholders = %v, want [$1 $23]", ph)
	}
}

func TestDollarQuotingPostgres(t *testing.T) {
	tests := []struct {
		in           string
		wantText     string
		unterminated bool
	}{
		{"$$a'b$$", "$$a'b$$", false},
		{"$tag$ x $nottag$ y $tag$", "$tag$ x $nottag$ y $tag$", false},
		{"$$abc", "$$abc", true},
		{"$q$it's -- fine /* here */$q$", "$q$it's -- fine /* here */$q$", false},
	}
	for _, tt := range tests {
		toks := Postgres.Lex(tt.in)
		if len(toks) != 1 || toks[0].Kind != KindString ||
			toks[0].Text != tt.wantText || toks[0].Unterminated != tt.unterminated {
			t.Errorf("postgres Lex(%q) = %v %v, want one string %q (unterminated=%v)",
				tt.in, kinds(toks), texts(toks), tt.wantText, tt.unterminated)
		}
	}
	// Under MySQL the same bytes are identifiers and a live string — the
	// boundary mis-draw the dialect-evasion testbed row builds on.
	toks := MySQL.Lex("$$a'b$$")
	if len(toks) != 2 || toks[0].Kind != KindIdent || toks[1].Kind != KindString || !toks[1].Unterminated {
		t.Errorf("mysql Lex($$a'b$$) = %v %v, want [ident $$][unterminated string]", kinds(toks), texts(toks))
	}
}

func TestDoubleQuoteByDialect(t *testing.T) {
	// MySQL: a string. Postgres/SQLite: a quoted identifier.
	toks := MySQL.Lex(`"x"`)
	if len(toks) != 1 || toks[0].Kind != KindString {
		t.Errorf(`mysql Lex("x") = %v, want one string`, kinds(toks))
	}
	for _, d := range []Dialect{Postgres, SQLite} {
		toks := d.Lex(`"x"`)
		if len(toks) != 1 || toks[0].Kind != KindBacktick {
			t.Errorf(`%s Lex("x") = %v %v, want one quoted ident`, d, kinds(toks), texts(toks))
		}
		// Doubled delimiter escapes inside the identifier.
		toks = d.Lex(`"a""b"`)
		if len(toks) != 1 || toks[0].Kind != KindBacktick || toks[0].Text != `"a""b"` {
			t.Errorf(`%s Lex("a""b") = %v %v, want one quoted ident`, d, kinds(toks), texts(toks))
		}
	}
}

func TestHashByDialect(t *testing.T) {
	toks := MySQL.Lex("1 # tail")
	if len(toks) != 2 || toks[1].Kind != KindComment {
		t.Errorf("mysql Lex(1 # tail) = %v %v, want number+comment", kinds(toks), texts(toks))
	}
	toks = Postgres.Lex("1 # 2")
	if len(toks) != 3 || toks[1].Kind != KindOperator || toks[1].Text != "#" {
		t.Errorf("postgres Lex(1 # 2) = %v %v, want number,operator,number", kinds(toks), texts(toks))
	}
	toks = SQLite.Lex("1 # 2")
	if len(toks) != 3 || toks[1].Kind != KindInvalid {
		t.Errorf("sqlite Lex(1 # 2) = %v %v, want number,invalid,number", kinds(toks), texts(toks))
	}
}

func TestBackslashEscapeByDialect(t *testing.T) {
	// MySQL: \' stays inside the literal — one string token.
	q := `'a\' UNION SELECT 1 -- '`
	toks := MySQL.Lex(q)
	if len(toks) != 1 || toks[0].Kind != KindString {
		t.Errorf("mysql Lex(%q) = %v %v, want one string", q, kinds(toks), texts(toks))
	}
	// Postgres (standard_conforming_strings=on) and SQLite: the backslash
	// is a plain byte, the quote closes, and UNION SELECT goes live.
	for _, d := range []Dialect{Postgres, SQLite} {
		toks := d.Lex(q)
		if len(toks) < 3 || toks[0].Text != `'a\'` || toks[1].Kind != KindKeyword || toks[1].Text != "UNION" {
			t.Errorf("%s Lex(%q) = %v %v, want string then live UNION", d, q, kinds(toks), texts(toks))
		}
	}
	// Postgres E-strings re-enable backslash escapes, prefix included.
	toks = Postgres.Lex(`E'a\'b'`)
	if len(toks) != 1 || toks[0].Kind != KindString || toks[0].Text != `E'a\'b'` {
		t.Errorf(`postgres Lex(E'a\'b') = %v %v, want one string`, kinds(toks), texts(toks))
	}
	// In MySQL the E is just an identifier.
	toks = MySQL.Lex(`E'ab'`)
	if len(toks) != 2 || toks[0].Kind != KindIdent || toks[1].Kind != KindString {
		t.Errorf(`mysql Lex(E'ab') = %v %v, want ident+string`, kinds(toks), texts(toks))
	}
}

func TestNestedBlockCommentByDialect(t *testing.T) {
	q := "/* a /* b */ c */"
	toks := Postgres.Lex(q)
	if len(toks) != 1 || toks[0].Kind != KindComment || toks[0].Text != q {
		t.Errorf("postgres Lex(%q) = %v %v, want one comment", q, kinds(toks), texts(toks))
	}
	toks = MySQL.Lex(q)
	if len(toks) != 4 || toks[0].Text != "/* a /* b */" {
		t.Errorf("mysql Lex(%q) = %v %v, want comment ending at first */", q, kinds(toks), texts(toks))
	}
	// An unbalanced nested comment is unterminated, not an infinite loop.
	toks = Postgres.Lex("/* a /* b */")
	if len(toks) != 1 || !toks[0].Unterminated {
		t.Errorf("postgres Lex(/* a /* b */) = %v, want one unterminated comment", kinds(toks))
	}
}

func TestDashDashByDialect(t *testing.T) {
	// MySQL needs whitespace after -- (pinned in TestLexComments);
	// Postgres and SQLite do not.
	for _, d := range []Dialect{Postgres, SQLite} {
		toks := d.Lex("--1")
		if len(toks) != 1 || toks[0].Kind != KindComment {
			t.Errorf("%s Lex(--1) = %v %v, want one comment", d, kinds(toks), texts(toks))
		}
	}
}

func TestQuestionByDialect(t *testing.T) {
	for _, d := range []Dialect{MySQL, SQLite} {
		toks := d.Lex("id = ?")
		if last := toks[len(toks)-1]; last.Kind != KindPlaceholder {
			t.Errorf("%s: ? = %v, want placeholder", d, last.Kind)
		}
	}
	toks := Postgres.Lex("meta ? 'key'")
	if toks[1].Kind != KindOperator || toks[1].Text != "?" {
		t.Errorf("postgres: ? = (%v, %q), want jsonb operator", toks[1].Kind, toks[1].Text)
	}
	// SQLite numbered form ?3 is one token; MySQL splits it.
	toks = SQLite.Lex("?3")
	if len(toks) != 1 || toks[0].Kind != KindPlaceholder || toks[0].Text != "?3" {
		t.Errorf("sqlite Lex(?3) = %v %v, want one placeholder", kinds(toks), texts(toks))
	}
	toks = MySQL.Lex("?3")
	if len(toks) != 2 || toks[0].Kind != KindPlaceholder || toks[1].Kind != KindNumber {
		t.Errorf("mysql Lex(?3) = %v %v, want placeholder+number", kinds(toks), texts(toks))
	}
}

func TestSQLiteNamedPlaceholders(t *testing.T) {
	toks := SQLite.Lex("SELECT :name, @name, $name, ?2")
	var ph []string
	for _, tok := range toks {
		if tok.Kind == KindPlaceholder {
			ph = append(ph, tok.Text)
		}
	}
	want := []string{":name", "@name", "$name", "?2"}
	if !reflect.DeepEqual(ph, want) {
		t.Errorf("sqlite placeholders = %v, want %v", ph, want)
	}
}

func TestPostgresColonAndAtOperators(t *testing.T) {
	toks := Postgres.Lex("arr[1:2]")
	var colon bool
	for _, tok := range toks {
		if tok.Text == ":" && tok.Kind == KindOperator {
			colon = true
		}
		if tok.Kind == KindPlaceholder {
			t.Errorf("postgres mis-lexed %q as placeholder in array slice", tok.Text)
		}
	}
	if !colon {
		t.Error("postgres: bare ':' should lex as an operator")
	}
	toks = Postgres.Lex("@ -5")
	if toks[0].Kind != KindOperator || toks[0].Text != "@" {
		t.Errorf("postgres: @ = (%v, %q), want operator", toks[0].Kind, toks[0].Text)
	}
}

func TestParseDialect(t *testing.T) {
	cases := map[string]Dialect{
		"mysql": MySQL, "mariadb": MySQL,
		"postgres": Postgres, "postgresql": Postgres, "pg": Postgres,
		"sqlite": SQLite, "sqlite3": SQLite,
	}
	for in, want := range cases {
		got, err := ParseDialect(in)
		if err != nil || got != want {
			t.Errorf("ParseDialect(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "oracle", "MYSQL "} {
		if _, err := ParseDialect(bad); err == nil {
			t.Errorf("ParseDialect(%q) succeeded, want error", bad)
		}
	}
	for _, d := range Dialects() {
		rt, err := ParseDialect(d.String())
		if err != nil || rt != d {
			t.Errorf("round trip %v -> %q -> %v, %v", d, d.String(), rt, err)
		}
		if !d.Valid() {
			t.Errorf("%v reported invalid", d)
		}
	}
	if Dialect(99).Valid() {
		t.Error("Dialect(99) reported valid")
	}
	if !strings.Contains(Dialect(99).String(), "99") {
		t.Errorf("Dialect(99).String() = %q", Dialect(99).String())
	}
	// A corrupt dialect value must still lex (clamped to MySQL), because
	// Lex is contractually total.
	if got := Dialect(99).Lex("SELECT 1"); !reflect.DeepEqual(got, MySQL.Lex("SELECT 1")) {
		t.Error("corrupt dialect did not clamp to MySQL lexing")
	}
}

// agreeCorpus holds queries on which all three dialects must produce
// identical token streams: the common SQL core with no dialect-sensitive
// bytes.
var agreeCorpus = []string{
	"SELECT * FROM records WHERE ID=1 LIMIT 5",
	"SELECT id, name FROM users WHERE age >= 21 ORDER BY name DESC",
	"INSERT INTO t (a, b) VALUES (1, 'two')",
	"UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)",
	"DELETE FROM logs WHERE ts < 100 AND level = 'debug'",
	"SELECT COUNT(*) FROM posts GROUP BY author HAVING COUNT(*) > 2",
	"SELECT a FROM t1 UNION ALL SELECT b FROM t2",
	"SELECT 'it''s' /* block */ -- tail\nFROM dual",
	"SELECT CAST(a AS CHAR) FROM t WHERE x BETWEEN 1 AND 2",
	"SELECT x::int FROM t",
}

// differCorpus holds inputs whose token streams MUST differ between MySQL
// and Postgres — each is one of the dialect-boundary bytes the tentpole
// exists for.
var differCorpus = []string{
	"1 # 2",             // comment vs operator
	`'a\' OR 1=1 -- '`,  // backslash escape vs plain byte
	"$$ UNION $$",       // identifiers vs dollar-quoted string
	`"x"`,               // string vs quoted identifier
	"id = $1",           // identifier vs placeholder
	"/* a /* b */ c */", // flat vs nested block comment
}

func TestDialectDifferentialCorpus(t *testing.T) {
	for _, q := range agreeCorpus {
		ref := MySQL.Lex(q)
		for _, d := range []Dialect{Postgres, SQLite} {
			if got := d.Lex(q); !reflect.DeepEqual(got, ref) {
				t.Errorf("dialects disagree on common-core query %q:\n  mysql: %v %v\n  %s: %v %v",
					q, kinds(ref), texts(ref), d, kinds(got), texts(got))
			}
		}
	}
	for _, q := range differCorpus {
		if reflect.DeepEqual(MySQL.Lex(q), Postgres.Lex(q)) {
			t.Errorf("mysql and postgres agree on %q; the corpus expects a dialect boundary here", q)
		}
	}
}

func TestDialectContainsSQLToken(t *testing.T) {
	// Dollar-quoted text is a string token (retention-worthy) only under
	// Postgres; MySQL sees a lone identifier.
	if MySQL.ContainsSQLToken("$$x$$") {
		t.Error("mysql: $$x$$ should contain no SQL token")
	}
	if !Postgres.ContainsSQLToken("$$x$$") {
		t.Error("postgres: $$x$$ should lex to a string token")
	}
	// And the free function stays MySQL.
	if ContainsSQLToken("$$x$$") {
		t.Error("ContainsSQLToken must keep MySQL semantics")
	}
}

// TestLexAllocatesExactSize pins Lex's one allocation at the stream's
// length: wp-write's 352-byte comment INSERT lexes to 18 tokens, and a
// lex sized for the query's bytes would hold 92. AppendLex into a
// caller's zero-capacity buffer keeps that headroom.
func TestLexAllocatesExactSize(t *testing.T) {
	q := "INSERT INTO comments (post_id, author, body) VALUES (17, 'tellus', '" +
		strings.Repeat("lorem travel notes security coffee ", 9)[:282] + "')"
	if len(q) != 352 {
		t.Fatalf("query is %d bytes, want 352", len(q))
	}
	for _, d := range Dialects() {
		toks := d.Lex(q)
		if len(toks) != 18 || cap(toks) != len(toks) {
			t.Fatalf("%s: Lex returned len %d cap %d, want 18 and 18", d, len(toks), cap(toks))
		}
		if !reflect.DeepEqual(toks, d.AppendLex(nil, q)) {
			t.Fatalf("%s: Lex and AppendLex disagree", d)
		}
		if got, want := cap(d.AppendLex(nil, q)), len(q)/4+4; got != want {
			t.Fatalf("%s: AppendLex into a nil buffer has cap %d, want %d", d, got, want)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { _ = MySQL.Lex(q) }); n != 1 {
		t.Fatalf("Lex allocates %.1f times, want 1", n)
	}
	// The one allocation is the 18-token slice, rounded up to its size
	// class at most.
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = MySQL.Lex(q)
	}
	runtime.ReadMemStats(&after)
	exact := 18 * int(unsafe.Sizeof(Token{}))
	if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per < exact || per > exact+exact/8 {
		t.Fatalf("Lex allocates %d bytes per call, want %d (18 tokens) up to its size class", per, exact)
	}
}
