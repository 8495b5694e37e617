// Package sqltoken implements a dialect-aware SQL lexer that tokenizes
// query strings into position-annotated tokens and classifies each token
// as critical or data.
//
// The notion of a "critical token" follows the Joza paper (DSN 2015): SQL
// keywords, built-in functions, operators, delimiters and comments are
// critical; identifiers, numbers and string-literal contents are data. The
// threat model deliberately permits field and table names to be supplied by
// user input, so plain identifiers are never critical.
//
// Lexical rules — quote and escape semantics, placeholder syntax, comment
// forms and the keyword/function vocabulary — are parameterized by Dialect
// (see dialect.go). The package-level functions Lex, IsKeyword,
// IsBuiltinFunction and ContainsSQLToken operate in the MySQL dialect, the
// zero value, and keep their exact pre-dialect behavior.
//
// Tokens carry byte offsets into the original query so taint-inference
// components can test whether a token is covered by a tainted or trusted span.
package sqltoken

import (
	"strings"
	"unicode/utf8"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword, Function, Operator, Punct and Comment are the
// critical kinds; the rest are data.
const (
	KindKeyword Kind = iota + 1
	KindIdent
	KindNumber
	KindString
	KindOperator
	KindPunct
	KindComment
	KindPlaceholder
	// KindBacktick is the quoted-identifier kind: `…` in MySQL and SQLite,
	// "…" in Postgres and SQLite. The name predates dialect support.
	KindBacktick
	KindFunction
	KindVariable
	KindInvalid
)

// kindNames is indexed by Kind, so naming a token in a rendered reason
// costs an index, not a map probe.
var kindNames = [...]string{
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

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if k < KindKeyword || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Span is a half-open byte range [Start, End) within a query string.
type Span struct {
	Start int
	End   int
}

// Len returns the number of bytes covered by the span.
func (s Span) Len() int { return s.End - s.Start }

// Contains reports whether the span fully contains other.
func (s Span) Contains(other Span) bool {
	return s.Start <= other.Start && other.End <= s.End
}

// Overlaps reports whether the two spans share at least one byte.
func (s Span) Overlaps(other Span) bool {
	return s.Start < other.End && other.Start < s.End
}

// Token is a single lexical token of a SQL query.
type Token struct {
	Kind Kind
	// Text is the raw source text of the token, including any quotes or
	// comment markers.
	Text string
	// Start and End are byte offsets into the query; the token occupies
	// query[Start:End].
	Start int
	End   int
	// Unterminated is set for string and block-comment tokens that reach
	// the end of input without their closing delimiter.
	Unterminated bool
}

// Span returns the byte range the token occupies.
func (t Token) Span() Span { return Span{Start: t.Start, End: t.End} }

// Critical reports whether the token is security-critical per the Joza
// model: keywords, built-in functions, operators, delimiters (punctuation)
// and comments.
func (t Token) Critical() bool {
	switch t.Kind {
	case KindKeyword, KindFunction, KindOperator, KindPunct, KindComment:
		return true
	default:
		return false
	}
}

// IsKeyword reports whether word (case-insensitive) is a SQL keyword in
// the MySQL dialect.
func IsKeyword(word string) bool {
	return MySQL.IsKeyword(word)
}

// IsBuiltinFunction reports whether name (case-insensitive) is a recognized
// built-in SQL function name in the MySQL dialect.
func IsBuiltinFunction(name string) bool {
	return MySQL.IsBuiltinFunction(name)
}

// Lex tokenizes query in the MySQL dialect. It never fails: malformed input
// produces tokens with Unterminated set or tokens of KindInvalid, because a
// defense must be able to reason about queries an attacker deliberately
// malformed. Use Dialect.Lex for other dialects.
func Lex(query string) []Token {
	return MySQL.Lex(query)
}

type lexer struct {
	src  string
	pos  int
	toks []Token
	sp   *dialectSpec
}

func (l *lexer) run() []Token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpaceByte(c):
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
			// MySQL requires whitespace (or end of input) after "--" for a
			// comment; otherwise it is the minus operator twice. Postgres
			// and SQLite start the comment unconditionally.
			if !l.sp.dashDashNeedsSpace || l.pos+2 >= len(l.src) || isSpaceByte(l.src[l.pos+2]) {
				l.lexLineComment(2)
			} else {
				l.lexOperator()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.lexBlockComment(l.sp.nestedBlockComment)
		case l.sp.eStrings && (c == 'E' || c == 'e') && l.peekAt(1) == '\'':
			// Postgres escape string: the E prefix is part of the literal
			// and re-enables backslash escapes.
			start := l.pos
			l.pos++
			l.lexString(start, '\'', true)
		case isDigit(c), c == '.' && isDigit(l.peekAt(1)):
			l.lexNumber()
		case l.identStart(c):
			l.lexWord()
		case c == '$':
			l.lexDollar()
		case c == '?':
			l.lexQuestion()
		case c == ':' && l.peekAt(1) == ':':
			// The cast operator, one token in every dialect. (It previously
			// mis-lexed as an invalid byte followed by a named placeholder.)
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
		case isPunct(c):
			l.emit(KindPunct, l.pos, l.pos+1, false)
			l.pos++
		case isOperatorByte(c):
			l.lexOperator()
		default:
			l.emit(KindInvalid, l.pos, l.pos+1, false)
			l.pos++
		}
	}
	return l.toks
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) emit(kind Kind, start, end int, unterminated bool) {
	l.toks = append(l.toks, Token{
		Kind:         kind,
		Text:         l.src[start:end],
		Start:        start,
		End:          end,
		Unterminated: unterminated,
	})
}

// lexString scans a quoted string whose opening delimiter sits at the
// cursor; start may precede it to fold a prefix (Postgres E'…') into the
// token. A doubled quote always escapes; backslash escapes only when the
// dialect says so.
func (l *lexer) lexString(start int, quote byte, backslash bool) {
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if backslash && c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == quote {
			// Doubled quote is an escaped quote inside the literal.
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

// lexQuotedIdent scans a quoted identifier (`…` or "…"). Postgres and
// SQLite escape the delimiter by doubling it; MySQL backticks do not.
func (l *lexer) lexQuotedIdent(quote byte, doubled bool) {
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

func (l *lexer) lexLineComment(markerLen int) {
	start := l.pos
	l.pos += markerLen
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
	l.emit(KindComment, start, l.pos, false)
}

func (l *lexer) lexBlockComment(nested bool) {
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

func (l *lexer) lexNumber() {
	start := l.pos
	// Hexadecimal literal: 0x...
	if l.src[l.pos] == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') && isHexDigit(l.peekAt(2)) {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		l.emit(KindNumber, start, l.pos, false)
		return
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	// Exponent part: 1e10, 2.5E-3.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		next := l.peekAt(1)
		if isDigit(next) {
			l.pos += 2
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else if (next == '+' || next == '-') && isDigit(l.peekAt(2)) {
			l.pos += 3
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	l.emit(KindNumber, start, l.pos, false)
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	function, keyword := l.sp.classify(l.src[start:l.pos])
	// A known function name directly followed by '(' (optionally with
	// whitespace) is a function token.
	if function && l.nextNonSpaceIs('(') {
		l.emit(KindFunction, start, l.pos, false)
		return
	}
	if keyword {
		l.emit(KindKeyword, start, l.pos, false)
		return
	}
	l.emit(KindIdent, start, l.pos, false)
}

// wordBufLen bounds the words classify upper-cases on the stack; it
// exceeds the longest keyword and function name of every dialect.
const wordBufLen = 32

// classify reports whether word, upper-cased, names a function and a
// keyword of the dialect. An ASCII word that fits wordBufLen is
// upper-cased into a stack buffer, which the map probes read without
// allocating. Any other word takes strings.ToUpper, whose Unicode case
// mapping can turn a non-ASCII word into a keyword (ſelect is SELECT).
func (sp *dialectSpec) classify(word string) (function, keyword bool) {
	if len(word) <= wordBufLen {
		var buf [wordBufLen]byte
		ascii := true
		for i := 0; i < len(word) && ascii; i++ {
			c := word[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
			ascii = c < utf8.RuneSelf
		}
		if ascii {
			up := buf[:len(word)]
			return sp.functions[string(up)], sp.keywords[string(up)]
		}
	}
	up := strings.ToUpper(word)
	return sp.functions[up], sp.keywords[up]
}

func (l *lexer) nextNonSpaceIs(want byte) bool {
	for i := l.pos; i < len(l.src); i++ {
		if isSpaceByte(l.src[i]) {
			continue
		}
		return l.src[i] == want
	}
	return false
}

// lexNamedPlaceholder scans a marker byte (':', '@' or '$') followed by an
// identifier as one placeholder token.
func (l *lexer) lexNamedPlaceholder() {
	start := l.pos
	l.pos++ // marker
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	l.emit(KindPlaceholder, start, l.pos, false)
}

func (l *lexer) lexVariable() {
	start := l.pos
	l.pos++ // '@'
	if l.pos < len(l.src) && l.src[l.pos] == '@' {
		l.pos++ // system variable @@
	}
	for l.pos < len(l.src) && l.identByte(l.src[l.pos]) {
		l.pos++
	}
	l.emit(KindVariable, start, l.pos, false)
}

// lexQuestion scans '?' — a positional placeholder where the dialect has
// one (with an optional ?NNN number in SQLite), an operator in Postgres.
func (l *lexer) lexQuestion() {
	if !l.sp.questionPlaceholder {
		l.lexOperator()
		return
	}
	start := l.pos
	l.pos++
	if l.sp.questionNumber {
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	l.emit(KindPlaceholder, start, l.pos, false)
}

// lexDollar handles a '$' that did not start an identifier: Postgres $1
// placeholders and $tag$…$tag$ dollar-quoted strings, SQLite $name
// placeholders. A lone '$' that fits no dialect form is invalid.
func (l *lexer) lexDollar() {
	if l.sp.dollarNumber && isDigit(l.peekAt(1)) {
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
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

// lexDollarQuote scans a Postgres dollar-quoted string $tag$…$tag$ (the
// tag may be empty: $$…$$). It reports false, leaving the cursor in place,
// when the byte at the cursor does not open a well-formed tag.
func (l *lexer) lexDollarQuote() bool {
	i := l.pos + 1
	for i < len(l.src) && isTagByte(l.src[i]) {
		i++
	}
	if i >= len(l.src) || l.src[i] != '$' {
		return false
	}
	start := l.pos
	tag := l.src[l.pos : i+1] // "$tag$", both delimiters included
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

func (l *lexer) lexOperator() {
	start := l.pos
	// Two-byte operators first.
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

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

// identStart reports whether c can begin an unquoted identifier. Only
// MySQL lets '$' start one; Postgres and SQLite accept '$' in continuation
// position only (identByte), which frees the leading '$' for placeholders
// and dollar-quoting.
func (l *lexer) identStart(c byte) bool {
	return c == '_' || (c == '$' && l.sp.dollarIdentStart) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

// identByte reports whether c can continue an unquoted identifier. All
// three dialects accept '$' here.
func (l *lexer) identByte(c byte) bool {
	return c == '_' || c == '$' || isDigit(c) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isTagByte(c byte) bool {
	return c == '_' || isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}

func isPunct(c byte) bool {
	switch c {
	case '(', ')', ',', ';', '.':
		return true
	}
	return false
}

func isOperatorByte(c byte) bool {
	switch c {
	case '=', '<', '>', '!', '+', '-', '*', '/', '%', '|', '&', '^', '~':
		return true
	}
	return false
}

// CriticalStrict reports whether the token is critical under the strict
// (Ray–Ligatti-style) policy of Section II, where user input may not
// contribute identifiers (field or table names) either: everything except
// literal data (numbers, strings) and placeholders is critical.
func (t Token) CriticalStrict() bool {
	switch t.Kind {
	case KindNumber, KindString, KindPlaceholder:
		return false
	default:
		return true
	}
}

// CriticalTokens returns the subset of toks that are critical.
func CriticalTokens(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	for _, t := range toks {
		if t.Critical() {
			out = append(out, t)
		}
	}
	return out
}

// ContainsSQLToken reports whether s lexes (in the MySQL dialect) to at
// least one non-invalid SQL token that is meaningful for fragment
// retention: a keyword, function, operator, punctuation, comment, string
// or quoted-identifier token. PTI uses this to discard program fragments
// that could never cover a critical token.
func ContainsSQLToken(s string) bool {
	return MySQL.ContainsSQLToken(s)
}

// CoversWholeToken reports whether the span [start, end) of the query whose
// tokens are toks fully contains at least one whole token. NTI requires a
// matched input to cover at least one whole SQL token before its markings
// can indicate an attack, to suppress false positives from very short inputs.
func CoversWholeToken(toks []Token, start, end int) bool {
	for _, t := range toks {
		if t.Start >= start && t.End <= end {
			return true
		}
	}
	return false
}
