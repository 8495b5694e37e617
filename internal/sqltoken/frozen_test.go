package sqltoken

import (
	"strings"
	"testing"
)

// This file holds a frozen copy of the byte-at-a-time lexer the package
// shipped before its bulk-scanning rewrite: one method per token form, a
// cursor on the lexer struct and two map probes per word. FuzzLexFrozen
// diffs the live lexer against it under every dialect, so the rewrite and
// any later change to the lexer's inner loops must keep the token stream
// bit-identical. A deliberate change of lexical rules must change this
// copy in the same commit and say why.

// frozenSpec is the dialect rule set the frozen lexer reads: the flag
// values every dialect had when the copy was made, and word sets built
// from the vocabulary lists in tables.go.
type frozenSpec struct {
	doubleQuoteIdent, backslashEscapes, backtickIdent, eStrings, dollarQuote bool

	questionPlaceholder, questionNumber, colonPlaceholder bool
	dollarNumber, dollarName, dollarIdentStart            bool

	hashComment, hashOperator, dashDashNeedsSpace, nestedBlockComment bool

	atVariable, atPlaceholder, colonOperator, atOperator bool

	keywords, functions map[string]bool
}

var frozenSpecs = [numDialects]frozenSpec{
	MySQL: {
		backslashEscapes:    true,
		backtickIdent:       true,
		questionPlaceholder: true,
		colonPlaceholder:    true,
		dollarIdentStart:    true,
		hashComment:         true,
		dashDashNeedsSpace:  true,
		atVariable:          true,
		keywords:            frozenWordSet(mysqlKeywords),
		functions:           frozenWordSet(mysqlFunctions),
	},
	Postgres: {
		doubleQuoteIdent:   true,
		eStrings:           true,
		dollarQuote:        true,
		dollarNumber:       true,
		hashOperator:       true,
		nestedBlockComment: true,
		colonOperator:      true,
		atOperator:         true,
		keywords:           frozenWordSet(postgresKeywords),
		functions:          frozenWordSet(postgresFunctions),
	},
	SQLite: {
		doubleQuoteIdent:    true,
		backtickIdent:       true,
		questionPlaceholder: true,
		questionNumber:      true,
		colonPlaceholder:    true,
		dollarName:          true,
		atPlaceholder:       true,
		keywords:            frozenWordSet(sqliteKeywords),
		functions:           frozenWordSet(sqliteFunctions),
	},
}

func frozenWordSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// frozenLex tokenizes query under d with the frozen lexer.
func frozenLex(d Dialect, query string) []Token {
	if !d.Valid() {
		d = MySQL
	}
	l := frozenLexer{src: query, sp: &frozenSpecs[d], toks: make([]Token, 0, len(query)/4+4)}
	return l.run()
}

type frozenLexer struct {
	src  string
	pos  int
	toks []Token
	sp   *frozenSpec
}

func (l *frozenLexer) run() []Token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case fIsSpaceByte(c):
			l.pos++
		case c == '\'':
			l.lexString(l.pos, '\'', l.sp.backslashEscapes)
		case c == '"':
			if l.sp.doubleQuoteIdent {
				l.lexQuotedIdent('"', true)
			} else {
				l.lexString(l.pos, '"', l.sp.backslashEscapes)
			}
		case c == '`' && l.sp.backtickIdent:
			l.lexQuotedIdent('`', false)
		case c == '#' && l.sp.hashComment:
			l.lexLineComment(1)
		case c == '#' && l.sp.hashOperator:
			l.lexOperator()
		case c == '-' && l.peekAt(1) == '-':
			if !l.sp.dashDashNeedsSpace || l.pos+2 >= len(l.src) || fIsSpaceByte(l.src[l.pos+2]) {
				l.lexLineComment(2)
			} else {
				l.lexOperator()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.lexBlockComment(l.sp.nestedBlockComment)
		case l.sp.eStrings && (c == 'E' || c == 'e') && l.peekAt(1) == '\'':
			start := l.pos
			l.pos++
			l.lexString(start, '\'', true)
		case fIsDigit(c), c == '.' && fIsDigit(l.peekAt(1)):
			l.lexNumber()
		case l.identStart(c):
			l.lexWord()
		case c == '$':
			l.lexDollar()
		case c == '?':
			l.lexQuestion()
		case c == ':' && l.peekAt(1) == ':':
			l.emit(KindOperator, l.pos, l.pos+2, false)
			l.pos += 2
		case c == ':' && l.peekAt(1) == '=':
			l.lexOperator()
		case c == ':' && l.sp.colonPlaceholder && l.identStart(l.peekAt(1)):
			l.lexNamedPlaceholder()
		case c == ':' && l.sp.colonOperator:
			l.lexOperator()
		case c == '@' && l.sp.atVariable:
			l.lexVariable()
		case c == '@' && l.sp.atPlaceholder && l.identByte(l.peekAt(1)):
			l.lexNamedPlaceholder()
		case c == '@' && l.sp.atOperator:
			l.lexOperator()
		case fIsPunct(c):
			l.emit(KindPunct, l.pos, l.pos+1, false)
			l.pos++
		case fIsOperatorByte(c):
			l.lexOperator()
		default:
			l.emit(KindInvalid, l.pos, l.pos+1, false)
			l.pos++
		}
	}
	return l.toks
}

func (l *frozenLexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *frozenLexer) emit(kind Kind, start, end int, unterminated bool) {
	l.toks = append(l.toks, Token{
		Kind:         kind,
		Text:         l.src[start:end],
		Start:        start,
		End:          end,
		Unterminated: unterminated,
	})
}

func (l *frozenLexer) lexString(start int, quote byte, backslash bool) {
	l.pos++
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if backslash && c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == quote {
			if l.peekAt(1) == quote {
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(KindString, start, l.pos, false)
			return
		}
		l.pos++
	}
	l.emit(KindString, start, l.pos, true)
}

func (l *frozenLexer) lexQuotedIdent(quote byte, doubled bool) {
	start := l.pos
	l.pos++
	for l.pos < len(l.src) {
		if l.src[l.pos] == quote {
			if doubled && l.peekAt(1) == quote {
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(KindBacktick, start, l.pos, false)
			return
		}
		l.pos++
	}
	l.emit(KindBacktick, start, l.pos, true)
}

func (l *frozenLexer) lexLineComment(markerLen int) {
	start := l.pos
	l.pos += markerLen
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
	l.emit(KindComment, start, l.pos, false)
}

func (l *frozenLexer) lexBlockComment(nested bool) {
	start := l.pos
	l.pos += 2
	depth := 1
	for l.pos < len(l.src) {
		if l.src[l.pos] == '*' && l.peekAt(1) == '/' {
			l.pos += 2
			if depth--; depth == 0 {
				l.emit(KindComment, start, l.pos, false)
				return
			}
			continue
		}
		if nested && l.src[l.pos] == '/' && l.peekAt(1) == '*' {
			l.pos += 2
			depth++
			continue
		}
		l.pos++
	}
	l.emit(KindComment, start, l.pos, true)
}

func (l *frozenLexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') && fIsHexDigit(l.peekAt(2)) {
		l.pos += 2
		for l.pos < len(l.src) && fIsHexDigit(l.src[l.pos]) {
			l.pos++
		}
		l.emit(KindNumber, start, l.pos, false)
		return
	}
	for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		next := l.peekAt(1)
		if fIsDigit(next) {
			l.pos += 2
			for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
				l.pos++
			}
		} else if (next == '+' || next == '-') && fIsDigit(l.peekAt(2)) {
			l.pos += 3
			for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	l.emit(KindNumber, start, l.pos, false)
}

func (l *frozenLexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	up := strings.ToUpper(l.src[start:l.pos])
	if l.sp.functions[up] && l.nextNonSpaceIs('(') {
		l.emit(KindFunction, start, l.pos, false)
		return
	}
	if l.sp.keywords[up] {
		l.emit(KindKeyword, start, l.pos, false)
		return
	}
	l.emit(KindIdent, start, l.pos, false)
}

func (l *frozenLexer) nextNonSpaceIs(want byte) bool {
	for i := l.pos; i < len(l.src); i++ {
		if fIsSpaceByte(l.src[i]) {
			continue
		}
		return l.src[i] == want
	}
	return false
}

func (l *frozenLexer) lexNamedPlaceholder() {
	start := l.pos
	l.pos++
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	l.emit(KindPlaceholder, start, l.pos, false)
}

func (l *frozenLexer) lexVariable() {
	start := l.pos
	l.pos++
	if l.pos < len(l.src) && l.src[l.pos] == '@' {
		l.pos++
	}
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	l.emit(KindVariable, start, l.pos, false)
}

func (l *frozenLexer) lexQuestion() {
	if !l.sp.questionPlaceholder {
		l.lexOperator()
		return
	}
	start := l.pos
	l.pos++
	if l.sp.questionNumber {
		for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	l.emit(KindPlaceholder, start, l.pos, false)
}

func (l *frozenLexer) lexDollar() {
	if l.sp.dollarNumber && fIsDigit(l.peekAt(1)) {
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && fIsDigit(l.src[l.pos]) {
			l.pos++
		}
		l.emit(KindPlaceholder, start, l.pos, false)
		return
	}
	if l.sp.dollarName && l.identByte(l.peekAt(1)) {
		l.lexNamedPlaceholder()
		return
	}
	if l.sp.dollarQuote && l.lexDollarQuote() {
		return
	}
	l.emit(KindInvalid, l.pos, l.pos+1, false)
	l.pos++
}

func (l *frozenLexer) lexDollarQuote() bool {
	i := l.pos + 1
	for i < len(l.src) && fIsTagByte(l.src[i]) {
		i++
	}
	if i >= len(l.src) || l.src[i] != '$' {
		return false
	}
	start := l.pos
	tag := l.src[l.pos : i+1]
	body := i + 1
	if j := strings.Index(l.src[body:], tag); j >= 0 {
		l.pos = body + j + len(tag)
		l.emit(KindString, start, l.pos, false)
		return true
	}
	l.pos = len(l.src)
	l.emit(KindString, start, l.pos, true)
	return true
}

func (l *frozenLexer) lexOperator() {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		switch two {
		case "<=", ">=", "<>", "!=", "||", "&&", ":=", "<<", ">>":
			l.pos += 2
			l.emit(KindOperator, start, l.pos, false)
			return
		}
	}
	l.pos++
	l.emit(KindOperator, start, l.pos, false)
}

func (l *frozenLexer) identStart(c byte) bool {
	return c == '_' || (c == '$' && l.sp.dollarIdentStart) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func (l *frozenLexer) identByte(c byte) bool {
	return c == '_' || c == '$' || fIsDigit(c) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func fIsDigit(c byte) bool    { return c >= '0' && c <= '9' }
func fIsHexDigit(c byte) bool { return fIsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

func fIsTagByte(c byte) bool {
	return c == '_' || fIsDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func fIsSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}

func fIsPunct(c byte) bool {
	switch c {
	case '(', ')', ',', ';', '.':
		return true
	}
	return false
}

func fIsOperatorByte(c byte) bool {
	switch c {
	case '=', '<', '>', '!', '+', '-', '*', '/', '%', '|', '&', '^', '~':
		return true
	}
	return false
}

// FuzzLexFrozen diffs AppendLex against the frozen lexer under every
// dialect, token by token and field by field. The seeds cover the forms
// the bulk scans and the word table handle: doubled quotes, a backslash
// as the last byte, unterminated strings, identifiers and comments,
// nested block comments, non-ASCII and over-long words, E'…' and
// $tag$…$tag$ strings. The CI fuzz-smoke job runs it for 30s per push.
func FuzzLexFrozen(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM t WHERE a = 'it''s' AND b = \"say \"\"hi\"\"\"",
		`'a\'b\\' 'tail\`,
		`"x\"y" 'ends in a backslash\`,
		"'open",
		"\"open `open",
		"/* open",
		"/* a /* b */ c */ d */ e",
		"/*/ */ /**/ /* * / */",
		"-- line\n# hash\n--x --\t",
		"ſelect ſum(1) unıon ın \u212Aey sel\xffect é",
		strings.Repeat("concat_", 6) + "(1) " + strings.Repeat("x", wordBufLen+1),
		"E'\\n' e'x\\'y' E'open\\",
		"$$a'b$$ $tag$x$tag$ $t$open $1 $name $ $x",
		"?1 ?? :name ::int := @v @@sys @ a@b 0x1F 1e5 2.5E-3 .5 1e+ 0x",
		"COUNT (*) count\t(1) Left( x) version",
		"INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content) VALUES (7, 'ann', 'It\\'s a \\\"great\\\" post, isn\\'t it?')",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var buf []Token
	f.Fuzz(func(t *testing.T, q string) {
		for _, d := range Dialects() {
			want := frozenLex(d, q)
			buf = d.AppendLex(buf[:0], q)
			if len(buf) != len(want) {
				t.Fatalf("%s: %q lexes to %d tokens, the frozen lexer to %d:\n  got  %v\n  want %v", d, q, len(buf), len(want), buf, want)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("%s: %q token %d is %+v, the frozen lexer's %+v", d, q, i, buf[i], want[i])
				}
			}
		}
	})
}
