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

// Byte classes of a dialect's dispatch table (dialectSpec.class). Every
// byte maps to one class in the low bits, plus flags telling whether it
// may start or continue an unquoted identifier. The table folds each
// dialect's quoting, comment and identifier rules into one load per
// token, so the lexer's loop branches on the class alone and tests
// identifier bytes through the same table.
const (
	clsInvalid     uint8 = iota
	clsSpace             // whitespace between tokens
	clsString            // ' (and " where it quotes strings)
	clsQuotedIdent       // " where it quotes identifiers, "" escaping
	clsBacktick          // ` quoted identifier, no escape
	clsHashComment       // # line comment
	clsDash              // - operator, or a -- line comment
	clsSlash             // / operator, or a /* block comment
	clsDigit             // number
	clsDot               // . delimiter, or a number's leading dot
	clsWord              // identifier, keyword or function name
	clsE                 // Postgres E'…' escape string, else clsWord
	clsDollar            // $1, $name, $tag$…$tag$ or an invalid $
	clsQuestion          // ? placeholder
	clsColon             // ::, :=, :name, : operator or invalid
	clsAt                // @var, @@var, @name, @ operator or invalid
	clsPunct             // ( ) , ;
	clsOperator          // operator, possibly paired with the next byte

	clsMask    = 0x3f
	identStart = 0x40 // the byte may start an unquoted identifier
	identByte  = 0x80 // the byte may continue one
)

// byteClasses builds sp's dispatch table from its rule flags.
func (sp *dialectSpec) byteClasses() (class [256]uint8) {
	for i := range class {
		c := byte(i)
		var k uint8
		switch {
		case isSpaceByte(c):
			k = clsSpace
		case c == '\'', c == '"' && !sp.doubleQuoteIdent:
			k = clsString
		case c == '"':
			k = clsQuotedIdent
		case c == '`' && sp.backtickIdent:
			k = clsBacktick
		case c == '#' && sp.hashComment:
			k = clsHashComment
		case c == '-':
			k = clsDash
		case c == '/':
			k = clsSlash
		case isDigit(c):
			k = clsDigit | identByte
		case c == '.':
			k = clsDot
		case (c == 'E' || c == 'e') && sp.eStrings:
			k = clsE | identStart | identByte
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c >= utf8.RuneSelf,
			c == '$' && sp.dollarIdentStart:
			k = clsWord | identStart | identByte
		case c == '$':
			// Every dialect accepts '$' inside an identifier; only MySQL
			// lets one start with it.
			k = clsDollar | identByte
		case c == '?' && sp.questionPlaceholder:
			k = clsQuestion
		case c == ':':
			k = clsColon
		case c == '@' && (sp.atVariable || sp.atPlaceholder):
			k = clsAt
		case c == '(', c == ')', c == ',', c == ';':
			k = clsPunct
		case strings.IndexByte("=<>!+*%|&^~", c) >= 0,
			c == '#' && sp.hashOperator, c == '?', c == '@' && sp.atOperator:
			k = clsOperator
		}
		class[i] = k
	}
	return class
}

// lex appends the tokens of src to toks. The cursor and the token slice
// stay in locals: each scanner takes a position and returns the token's
// end, and the one append at the bottom of the loop emits the token.
func (sp *dialectSpec) lex(toks []Token, src string) []Token {
	for pos := 0; pos < len(src); {
		start, c := pos, src[pos]
		kind, closed := KindOperator, true
		switch sp.class[c] & clsMask {
		case clsSpace:
			pos++
			continue
		case clsString:
			kind = KindString
			pos, closed = scanQuoted(src, pos+1, c, true, sp.backslashEscapes)
		case clsQuotedIdent:
			kind = KindBacktick
			pos, closed = scanQuoted(src, pos+1, c, true, false)
		case clsBacktick:
			kind = KindBacktick
			pos, closed = scanQuoted(src, pos+1, c, false, false)
		case clsHashComment:
			kind, pos = KindComment, lineEnd(src, pos+1)
		case clsDash:
			// MySQL requires whitespace (or end of input) after "--" for a
			// comment; otherwise it is the minus operator twice. Postgres
			// and SQLite start the comment unconditionally.
			if peek(src, pos+1) == '-' && (!sp.dashDashNeedsSpace || pos+2 >= len(src) ||
				sp.class[src[pos+2]]&clsMask == clsSpace) {
				kind, pos = KindComment, lineEnd(src, pos+2)
			} else {
				pos++
			}
		case clsSlash:
			if peek(src, pos+1) == '*' {
				kind = KindComment
				pos, closed = scanBlockComment(src, pos+2, sp.nestedBlockComment)
			} else {
				pos++
			}
		case clsDigit:
			kind, pos = KindNumber, numberEnd(src, pos)
		case clsDot:
			if isDigit(peek(src, pos+1)) {
				kind, pos = KindNumber, numberEnd(src, pos)
			} else {
				kind, pos = KindPunct, pos+1
			}
		case clsE:
			if peek(src, pos+1) == '\'' {
				// Postgres escape string: the E prefix is part of the
				// literal and re-enables backslash escapes.
				kind = KindString
				pos, closed = scanQuoted(src, pos+2, '\'', true, true)
			} else {
				kind, pos = sp.lexWord(src, pos)
			}
		case clsWord:
			kind, pos = sp.lexWord(src, pos)
		case clsDollar:
			kind, pos, closed = sp.lexDollar(src, pos)
		case clsQuestion:
			// A positional placeholder, with an optional ?NNN number in
			// SQLite. (Postgres's ? is an operator.)
			kind, pos = KindPlaceholder, pos+1
			if sp.questionNumber {
				pos = digitsEnd(src, pos)
			}
		case clsColon:
			switch n := peek(src, pos+1); {
			case n == ':' || n == '=':
				// The cast operator and :=, one token in every dialect.
				pos += 2
			case sp.colonPlaceholder && sp.class[n]&identStart != 0:
				kind, pos = KindPlaceholder, sp.identEnd(src, pos+1)
			case sp.colonOperator:
				pos++
			default:
				kind, pos = KindInvalid, pos+1
			}
		case clsAt:
			switch n := peek(src, pos+1); {
			case sp.atVariable:
				kind, pos = KindVariable, pos+1
				if n == '@' {
					pos++ // system variable @@
				}
				pos = sp.identEnd(src, pos)
			case sp.atPlaceholder && sp.class[n]&identByte != 0:
				kind, pos = KindPlaceholder, sp.identEnd(src, pos+1)
			case sp.atOperator:
				pos++
			default:
				kind, pos = KindInvalid, pos+1
			}
		case clsPunct:
			kind, pos = KindPunct, pos+1
		case clsOperator:
			pos = operatorEnd(src, pos)
		default:
			kind, pos = KindInvalid, pos+1
		}
		toks = append(toks, Token{Kind: kind, Text: src[start:pos], Start: start, End: pos, Unterminated: !closed})
	}
	return toks
}

// peek returns src[i], or 0 past the end of src.
func peek(src string, i int) byte {
	if i < len(src) {
		return src[i]
	}
	return 0
}

// scanQuoted returns the end of a quoted string or identifier whose body
// starts at pos, and whether its closing quote was found; an unterminated
// one ends at the end of src. A doubled quote escapes when doubled is
// set, and a backslash escapes the byte after it when backslash is. The
// scan jumps with IndexByte from quote to quote, and within that stretch
// from backslash to backslash.
func scanQuoted(src string, pos int, quote byte, doubled, backslash bool) (int, bool) {
	next := -1 // the next quote at or after pos, once found
	for {
		if next < pos {
			i := strings.IndexByte(src[pos:], quote)
			if i < 0 {
				return len(src), false
			}
			next = pos + i
		}
		if backslash {
			if i := strings.IndexByte(src[pos:next], '\\'); i >= 0 {
				pos += i + 2 // the escaped byte exists: next lies beyond it
				continue
			}
		}
		pos = next + 1
		if !doubled || pos >= len(src) || src[pos] != quote {
			return pos, true
		}
		pos++
	}
}

// lineEnd returns the end of a line comment whose text starts at pos: the
// next newline, which stays outside the token, or the end of src.
func lineEnd(src string, pos int) int {
	if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
		return pos + i
	}
	return len(src)
}

// scanBlockComment returns the end of a block comment whose body starts
// at pos and whether it was closed. With nested set (Postgres), each /*
// inside opens a level that needs its own */.
func scanBlockComment(src string, pos int, nested bool) (int, bool) {
	for depth := 1; ; {
		var i int
		if nested {
			i = strings.IndexAny(src[pos:], "*/")
		} else {
			i = strings.Index(src[pos:], "*/")
		}
		if i < 0 {
			return len(src), false
		}
		pos += i
		switch n := peek(src, pos+1); {
		case src[pos] == '*' && n == '/':
			pos += 2
			if depth--; depth == 0 {
				return pos, true
			}
		case src[pos] == '/' && n == '*':
			pos += 2
			depth++
		default:
			pos++
		}
	}
}

// numberEnd returns the end of the number at pos: a 0x hexadecimal
// literal, or digits with an optional fraction and exponent.
func numberEnd(src string, pos int) int {
	if src[pos] == '0' && peek(src, pos+1)|0x20 == 'x' && isHexDigit(peek(src, pos+2)) {
		for pos += 2; pos < len(src) && isHexDigit(src[pos]); pos++ {
		}
		return pos
	}
	pos = digitsEnd(src, pos)
	if pos < len(src) && src[pos] == '.' {
		pos = digitsEnd(src, pos+1)
	}
	// Exponent part: 1e10, 2.5E-3.
	if pos < len(src) && src[pos]|0x20 == 'e' {
		switch n := peek(src, pos+1); {
		case isDigit(n):
			pos = digitsEnd(src, pos+2)
		case (n == '+' || n == '-') && isDigit(peek(src, pos+2)):
			pos = digitsEnd(src, pos+3)
		}
	}
	return pos
}

func digitsEnd(src string, pos int) int {
	for pos < len(src) && isDigit(src[pos]) {
		pos++
	}
	return pos
}

// identEnd returns the end of the identifier bytes at pos.
func (sp *dialectSpec) identEnd(src string, pos int) int {
	for pos < len(src) && sp.class[src[pos]]&identByte != 0 {
		pos++
	}
	return pos
}

// lexWord scans the word at start and classifies it. A known function
// name directly followed by '(' (optionally with whitespace) is a
// function token.
func (sp *dialectSpec) lexWord(src string, start int) (Kind, int) {
	end := sp.identEnd(src, start+1)
	switch word := sp.classify(src[start:end]); {
	case word&wordFunction != 0 && sp.nextNonSpaceIs(src, end, '('):
		return KindFunction, end
	case word&wordKeyword != 0:
		return KindKeyword, end
	}
	return KindIdent, end
}

func (sp *dialectSpec) nextNonSpaceIs(src string, pos int, want byte) bool {
	for ; pos < len(src); pos++ {
		if sp.class[src[pos]]&clsMask != clsSpace {
			return src[pos] == want
		}
	}
	return false
}

// lexDollar scans a '$' that did not start an identifier: Postgres $1
// placeholders and $tag$…$tag$ dollar-quoted strings, SQLite $name
// placeholders. A lone '$' that fits no dialect form is invalid.
func (sp *dialectSpec) lexDollar(src string, pos int) (Kind, int, bool) {
	switch n := peek(src, pos+1); {
	case sp.dollarNumber && isDigit(n):
		return KindPlaceholder, digitsEnd(src, pos+1), true
	case sp.dollarName && sp.class[n]&identByte != 0:
		return KindPlaceholder, sp.identEnd(src, pos+1), true
	case sp.dollarQuote:
		// $tag$…$tag$, where the tag may be empty ($$…$$) and is an
		// identifier without '$'.
		i := pos + 1
		for i < len(src) && sp.class[src[i]]&identByte != 0 && src[i] != '$' {
			i++
		}
		if i < len(src) && src[i] == '$' {
			tag := src[pos : i+1] // "$tag$", both delimiters included
			if j := strings.Index(src[i+1:], tag); j >= 0 {
				return KindString, i + 1 + j + len(tag), true
			}
			return KindString, len(src), false
		}
	}
	return KindInvalid, pos + 1, true
}

// operatorEnd returns the end of the operator at pos, which pairs with
// the next byte into a two-byte operator where one exists.
func operatorEnd(src string, pos int) int {
	if pos+1 < len(src) {
		switch src[pos : pos+2] {
		case "<=", ">=", "<>", "!=", "||", "&&", ":=", "<<", ">>":
			return pos + 2
		}
	}
	return pos + 1
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
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
// toks must be a lex of the query, as TokensWithin requires.
func CoversWholeToken(toks []Token, start, end int) bool {
	return len(TokensWithin(toks, start, end)) > 0
}

// TokensWithin returns the run of toks that lie wholly inside the span
// [start, end), in lex order. toks must be a lex of the query: tokens in
// ascending, non-overlapping order, so their ends ascend with their
// starts. A binary search finds the first token starting at or after
// start; the run ends at the first token ending past end.
func TokensWithin(toks []Token, start, end int) []Token {
	lo, hi := 0, len(toks)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); toks[m].Start < start {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(toks) && toks[hi].End <= end {
		hi++
	}
	return toks[lo:hi]
}
