package sqltoken

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestLexSimpleSelect(t *testing.T) {
	toks := Lex("SELECT * FROM records WHERE ID=1 LIMIT 5")
	want := []struct {
		kind Kind
		text string
	}{
		{KindKeyword, "SELECT"},
		{KindOperator, "*"},
		{KindKeyword, "FROM"},
		{KindIdent, "records"},
		{KindKeyword, "WHERE"},
		{KindIdent, "ID"},
		{KindOperator, "="},
		{KindNumber, "1"},
		{KindKeyword, "LIMIT"},
		{KindNumber, "5"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), texts(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d: got (%v, %q), want (%v, %q)",
				i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexOffsetsReconstructQuery(t *testing.T) {
	queries := []string{
		"SELECT * FROM t WHERE a = 'x' AND b=2",
		"INSERT INTO t (a,b) VALUES ('1','2')",
		"SELECT 1 /* comment */ -- tail\nFROM dual",
		"SELECT `col` FROM `tab` WHERE x LIKE '%y%'",
	}
	for _, q := range queries {
		for _, tok := range Lex(q) {
			if tok.Start < 0 || tok.End > len(q) || tok.Start >= tok.End {
				t.Fatalf("query %q: bad span %d:%d", q, tok.Start, tok.End)
			}
			if q[tok.Start:tok.End] != tok.Text {
				t.Errorf("query %q: span %d:%d is %q, token text %q",
					q, tok.Start, tok.End, q[tok.Start:tok.End], tok.Text)
			}
		}
	}
}

func TestLexStrings(t *testing.T) {
	tests := []struct {
		in           string
		wantText     string
		unterminated bool
	}{
		{`'hello'`, `'hello'`, false},
		{`'it''s'`, `'it''s'`, false},
		{`'a\'b'`, `'a\'b'`, false},
		{`"double"`, `"double"`, false},
		{`'open`, `'open`, true},
		{`"also open`, `"also open`, true},
	}
	for _, tt := range tests {
		toks := Lex(tt.in)
		if len(toks) != 1 {
			t.Fatalf("Lex(%q): got %d tokens %v", tt.in, len(toks), texts(toks))
		}
		got := toks[0]
		if got.Kind != KindString || got.Text != tt.wantText || got.Unterminated != tt.unterminated {
			t.Errorf("Lex(%q) = {%v %q unterminated=%v}, want {string %q unterminated=%v}",
				tt.in, got.Kind, got.Text, got.Unterminated, tt.wantText, tt.unterminated)
		}
	}
}

func TestLexComments(t *testing.T) {
	tests := []struct {
		in       string
		kind     Kind
		wantText string
	}{
		{"/* block */", KindComment, "/* block */"},
		{"/* open", KindComment, "/* open"},
		{"# hash comment", KindComment, "# hash comment"},
		{"-- dash comment", KindComment, "-- dash comment"},
	}
	for _, tt := range tests {
		toks := Lex(tt.in)
		if len(toks) != 1 || toks[0].Kind != tt.kind || toks[0].Text != tt.wantText {
			t.Errorf("Lex(%q) = %v %v, want one %v %q", tt.in, kinds(toks), texts(toks), tt.kind, tt.wantText)
		}
	}
	// "--1" is not a comment; it is two minus operators and a number.
	toks := Lex("--1")
	if len(toks) != 3 || toks[0].Kind != KindOperator || toks[2].Kind != KindNumber {
		t.Errorf("Lex(--1) = %v %v, want operator,operator,number", kinds(toks), texts(toks))
	}
}

func TestLexNumbers(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"42", "42"},
		{"3.14", "3.14"},
		{".5", ".5"},
		{"0x1F", "0x1F"},
		{"1e10", "1e10"},
		{"2.5E-3", "2.5E-3"},
	}
	for _, tt := range tests {
		toks := Lex(tt.in)
		if len(toks) != 1 || toks[0].Kind != KindNumber || toks[0].Text != tt.want {
			t.Errorf("Lex(%q) = %v %v, want one number %q", tt.in, kinds(toks), texts(toks), tt.want)
		}
	}
}

func TestLexFunctions(t *testing.T) {
	toks := Lex("SELECT CHAR(65), username(), version ()")
	var funcs []string
	for _, tok := range toks {
		if tok.Kind == KindFunction {
			funcs = append(funcs, tok.Text)
		}
	}
	want := []string{"CHAR", "username", "version"}
	if len(funcs) != len(want) {
		t.Fatalf("function tokens = %v, want %v", funcs, want)
	}
	for i := range want {
		if funcs[i] != want[i] {
			t.Errorf("function %d = %q, want %q", i, funcs[i], want[i])
		}
	}
	// An identifier named like a function but not called is an ident.
	toks = Lex("SELECT version FROM t")
	if toks[1].Kind != KindIdent {
		t.Errorf("bare 'version' lexed as %v, want ident", toks[1].Kind)
	}
}

func TestLexPlaceholdersAndVariables(t *testing.T) {
	toks := Lex("SELECT ? , :name, @uservar, @@global_var")
	var got []Kind
	for _, tok := range toks {
		if tok.Kind == KindPlaceholder || tok.Kind == KindVariable {
			got = append(got, tok.Kind)
		}
	}
	want := []Kind{KindPlaceholder, KindPlaceholder, KindVariable, KindVariable}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("placeholder/variable %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks := Lex("a<=b >= c <> d != e || f && g := h << i >> j")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == KindOperator {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!=", "||", "&&", ":=", "<<", ">>"}
	if len(ops) != len(want) {
		t.Fatalf("operators = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("operator %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestCriticalClassification(t *testing.T) {
	toks := Lex("SELECT name FROM users WHERE id = -1 OR 1=1 /*x*/")
	critical := map[string]bool{}
	for _, tok := range toks {
		if tok.Critical() {
			critical[tok.Text] = true
		}
	}
	for _, want := range []string{"SELECT", "FROM", "WHERE", "=", "OR", "-", "/*x*/"} {
		if !critical[want] {
			t.Errorf("%q not classified critical; critical set: %v", want, critical)
		}
	}
	for _, data := range []string{"name", "users", "id", "1"} {
		if critical[data] {
			t.Errorf("%q wrongly classified critical", data)
		}
	}
}

func TestBacktickIdent(t *testing.T) {
	toks := Lex("SELECT `weird name` FROM t")
	if toks[1].Kind != KindBacktick || toks[1].Text != "`weird name`" {
		t.Errorf("backtick token = %v %q", toks[1].Kind, toks[1].Text)
	}
	if toks[1].Critical() {
		t.Error("backtick identifier must not be critical")
	}
}

func TestContainsSQLToken(t *testing.T) {
	tests := []struct {
		in   string
		want bool
	}{
		{"SELECT * FROM records WHERE ID=", true},
		{" LIMIT 5", true},
		{"OR", true},
		{"=", true},
		{"plainword", false},
		{"", false},
		{"hello world", false},
		{"id", false},
		{"''", true},
		{"#", true},
	}
	for _, tt := range tests {
		if got := ContainsSQLToken(tt.in); got != tt.want {
			t.Errorf("ContainsSQLToken(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestCoversWholeToken(t *testing.T) {
	q := "SELECT id FROM t WHERE id=-1 OR 1=1"
	toks := Lex(q)
	orStart := strings.Index(q, "OR")
	// Span covering "-1 OR 1=1" covers whole tokens.
	if !CoversWholeToken(toks, strings.Index(q, "-1"), len(q)) {
		t.Error("span over '-1 OR 1=1' should cover a whole token")
	}
	// Span covering only half of "OR" does not.
	if CoversWholeToken(toks, orStart+1, orStart+2) {
		t.Error("span over half of OR should not cover a whole token")
	}
}

// FuzzTokensWithin is the differential test of the bounded token scans:
// over every span of the query, lexed under each dialect, TokensWithin
// must return exactly the tokens a scan of the whole stream finds inside
// the span, in order, and CoversWholeToken must agree with that scan.
func FuzzTokensWithin(f *testing.F) {
	for _, q := range []string{
		"SELECT id FROM t WHERE id=-1 OR 1=1",
		"INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus dolor')",
		"SELECT * FROM t WHERE a = 'x' /* c */ AND b = $$y$$ -- tail",
		"SELECT 1e5, 0x1F, `a b`, \"q\" FROM t WHERE s = E'a\\'b'",
		"'unterminated",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 96 {
			q = q[:96]
		}
		for _, d := range Dialects() {
			toks := d.Lex(q)
			for start := 0; start <= len(q)+1; start++ {
				for end := start - 1; end <= len(q)+1; end++ {
					var want []Token
					for _, tok := range toks {
						if tok.Start >= start && tok.End <= end {
							want = append(want, tok)
						}
					}
					got := TokensWithin(toks, start, end)
					if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %q [%d,%d): TokensWithin %v, full scan %v", d, q, start, end, got, want)
					}
					if CoversWholeToken(toks, start, end) != (len(want) > 0) {
						t.Fatalf("%s %q [%d,%d): CoversWholeToken disagrees with the full scan", d, q, start, end)
					}
				}
			}
		}
	})
}

func TestSpanOps(t *testing.T) {
	a := Span{Start: 2, End: 10}
	if !a.Contains(Span{Start: 3, End: 9}) || !a.Contains(a) {
		t.Error("Contains failed for contained spans")
	}
	if a.Contains(Span{Start: 1, End: 5}) || a.Contains(Span{Start: 9, End: 11}) {
		t.Error("Contains succeeded for non-contained spans")
	}
	if !a.Overlaps(Span{Start: 9, End: 20}) || a.Overlaps(Span{Start: 10, End: 12}) {
		t.Error("Overlaps boundary conditions wrong")
	}
	if a.Len() != 8 {
		t.Errorf("Len = %d, want 8", a.Len())
	}
}

func TestLexNeverPanicsAndSpansAreOrdered(t *testing.T) {
	f := func(s string) bool {
		toks := Lex(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	for _, q := range []string{"select", "SeLeCt", "SELECT", "union", "UnIoN"} {
		toks := Lex(q)
		if len(toks) != 1 || toks[0].Kind != KindKeyword {
			t.Errorf("Lex(%q) = %v, want keyword", q, kinds(toks))
		}
	}
}

// TestKindString pins every kind's name, which audit lines and wire
// reasons carry, and "unknown" for values outside the kinds.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindKeyword:     "keyword",
		KindIdent:       "ident",
		KindNumber:      "number",
		KindString:      "string",
		KindOperator:    "operator",
		KindPunct:       "punct",
		KindComment:     "comment",
		KindPlaceholder: "placeholder",
		KindBacktick:    "backtick",
		KindFunction:    "function",
		KindVariable:    "variable",
		KindInvalid:     "invalid",
	}
	for k := Kind(-2); k <= KindInvalid+2; k++ {
		name, ok := want[k]
		if !ok {
			name = "unknown"
		}
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, name)
		}
	}
	if Kind(999).String() != "unknown" {
		t.Error("Kind(999) is not unknown")
	}
}

func TestCriticalTokens(t *testing.T) {
	toks := Lex("SELECT a FROM b WHERE c=1")
	crit := CriticalTokens(toks)
	if len(crit) != 4 { // SELECT FROM WHERE =
		t.Fatalf("CriticalTokens = %v, want 4 tokens", texts(crit))
	}
}

// TestWordClassificationMatchesToUpper pins that the word-table
// classifier agrees with strings.ToUpper on the words it does not
// upper-case itself: non-ASCII words, whose Unicode case mapping can be
// ASCII (ſ is S, ı is I), and words longer than its buffer.
func TestWordClassificationMatchesToUpper(t *testing.T) {
	long := strings.Repeat("concat_", 6)
	words := []string{
		"ſelect", "ſELECT", "unıon", "ıf", "ſum", "coalesce", "ın",
		"\u212Aey",        // KELVIN SIGN, already upper case: not KEY
		"sel\xffect", "é", // invalid UTF-8 and a plain non-ASCII letter
		long, strings.ToUpper(long), long + "ſ", strings.Repeat("x", wordBufLen+1),
	}
	for _, d := range Dialects() {
		for _, w := range words {
			for _, q := range []string{w, w + "(1)"} {
				up := strings.ToUpper(w)
				want := KindIdent
				switch {
				case q != w && slices.Contains(d.spec().functions, up):
					want = KindFunction
				case slices.Contains(d.spec().keywords, up):
					want = KindKeyword
				}
				if got := d.Lex(q)[0].Kind; got != want {
					t.Errorf("%s: Lex(%q)[0] is %s, want %s", d, q, got, want)
				}
			}
		}
	}
	if got := Lex("ſelect")[0].Kind; got != KindKeyword {
		t.Errorf("ſelect lexes as %s, want keyword", got)
	}
}

// TestIsKeywordDoesNotAllocate pins that IsKeyword and IsBuiltinFunction
// classify an ASCII word through the lexer's word table, upper-casing on
// the stack, and agree with it.
func TestIsKeywordDoesNotAllocate(t *testing.T) {
	for _, d := range Dialects() {
		if allocs := testing.AllocsPerRun(100, func() {
			d.IsKeyword("select")
			d.IsBuiltinFunction("Concat")
			d.IsKeyword("wp_posts")
		}); allocs != 0 {
			t.Errorf("%s: IsKeyword and IsBuiltinFunction allocate %.1f times, want 0", d, allocs)
		}
		for _, w := range slices.Concat(d.spec().keywords, d.spec().functions, []string{"wp_posts", "", "ſelect"}) {
			for _, v := range []string{w, strings.ToLower(w)} {
				up := strings.ToUpper(v)
				if got, want := d.IsKeyword(v), slices.Contains(d.spec().keywords, up); got != want {
					t.Errorf("%s: IsKeyword(%q) = %v, want %v", d, v, got, want)
				}
				if got, want := d.IsBuiltinFunction(v), slices.Contains(d.spec().functions, up); got != want {
					t.Errorf("%s: IsBuiltinFunction(%q) = %v, want %v", d, v, got, want)
				}
			}
		}
	}
}

// TestLexAllocatesOnlyTheTokenSlice pins that lexing an ASCII query
// allocates once: the token slice. Word classification upper-cases on the
// stack.
func TestLexAllocatesOnlyTheTokenSlice(t *testing.T) {
	q := "select id, title from wp_posts where post_status = 'publish' and id in (1, 2) order by post_date desc limit 10"
	for _, d := range Dialects() {
		if allocs := testing.AllocsPerRun(100, func() { d.Lex(q) }); allocs != 1 {
			t.Errorf("%s: Lex allocates %.1f times, want 1", d, allocs)
		}
	}
}

// TestAppendLexIntoPresizedBufferDoesNotAllocate pins the pooled-buffer
// lex: once the buffer holds the query's tokens, lexing into it again
// allocates nothing, and it yields the same tokens as Lex.
func TestAppendLexIntoPresizedBufferDoesNotAllocate(t *testing.T) {
	q := "select id, title from wp_posts where post_status = 'publish' and id in (1, 2) order by post_date desc limit 10"
	for _, d := range Dialects() {
		buf := d.AppendLex(nil, q)
		if allocs := testing.AllocsPerRun(100, func() { buf = d.AppendLex(buf[:0], q) }); allocs != 0 {
			t.Errorf("%s: AppendLex into a presized buffer allocates %.1f times, want 0", d, allocs)
		}
		if want := d.Lex(q); !reflect.DeepEqual(buf, want) {
			t.Errorf("%s: AppendLex = %v, want %v", d, buf, want)
		}
	}
}
