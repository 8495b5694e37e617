package sqltoken

import (
	"fmt"
	"sync"
)

// Dialect selects the SQL grammar family the lexer applies: quote and
// escape semantics, placeholder syntax, comment rules and the
// keyword/function vocabulary. The zero value is MySQL, so every API that
// predates dialects — Lex, IsKeyword, ContainsSQLToken — keeps its exact
// historical behavior.
//
// Dialect differences are not cosmetic for an injection defense: a guard
// that tokenizes Postgres traffic with MySQL rules mis-draws the
// string/code boundary (backslash escapes, `"` strings, `#` comments,
// missing dollar-quoting), which is precisely the syntax-confusion evasion
// class. See the testbed dialect-evasion row for concrete payloads.
type Dialect int

// Supported dialects. MySQL is the zero value and the default everywhere.
const (
	MySQL Dialect = iota
	Postgres
	SQLite
	numDialects // sentinel, keep last
)

// String returns the canonical lower-case name used on the daemon wire,
// in profile-store headers and in command-line flags.
func (d Dialect) String() string {
	switch d {
	case MySQL:
		return "mysql"
	case Postgres:
		return "postgres"
	case SQLite:
		return "sqlite"
	default:
		return fmt.Sprintf("dialect(%d)", int(d))
	}
}

// Valid reports whether d is one of the supported dialect values.
func (d Dialect) Valid() bool { return d >= MySQL && d < numDialects }

// ParseDialect maps a dialect name to its Dialect value. It accepts the
// canonical names ("mysql", "postgres", "sqlite") plus common aliases.
// The empty string is NOT accepted here: wire and file-format layers that
// treat "absent" as MySQL must apply that default before calling.
func ParseDialect(s string) (Dialect, error) {
	switch s {
	case "mysql", "mariadb":
		return MySQL, nil
	case "postgres", "postgresql", "pg":
		return Postgres, nil
	case "sqlite", "sqlite3":
		return SQLite, nil
	default:
		return MySQL, fmt.Errorf("unknown SQL dialect %q (want mysql, postgres or sqlite)", s)
	}
}

// Dialects returns all supported dialects, for differential tests and
// fuzzing loops.
func Dialects() []Dialect { return []Dialect{MySQL, Postgres, SQLite} }

// dialectSpec is the complete lexical rule set for one dialect. Package
// init derives its byte-class table from the rule flags and its word table
// from the vocabulary lists, so most dialect differences cost the lexer a
// table load rather than a branch.
type dialectSpec struct {
	name string

	// Quote and escape semantics.
	doubleQuoteIdent bool // `"` opens a quoted identifier, not a string
	backslashEscapes bool // backslash escapes inside '…' (and "…" strings)
	backtickIdent    bool // `…` opens a quoted identifier
	eStrings         bool // E'…' is a backslash-escaped string literal
	dollarQuote      bool // $tag$…$tag$ dollar-quoted strings

	// Placeholder syntax.
	questionPlaceholder bool // ? positional placeholder
	questionNumber      bool // ?NNN numbered placeholder (SQLite)
	colonPlaceholder    bool // :name named placeholder
	dollarNumber        bool // $1 numbered placeholder (Postgres)
	dollarName          bool // $name named placeholder (SQLite)
	dollarIdentStart    bool // '$' may start an unquoted identifier (MySQL)

	// Comment rules.
	hashComment        bool // '#' starts a line comment
	hashOperator       bool // '#' is an operator (Postgres bitwise XOR)
	dashDashNeedsSpace bool // '--' starts a comment only before whitespace/EOF
	nestedBlockComment bool // /* … /* … */ … */ nests (Postgres)

	// Variable / operator odds and ends.
	atVariable    bool // @name and @@name session variables (MySQL)
	atPlaceholder bool // @name named placeholder (SQLite)
	colonOperator bool // a bare ':' is an operator (Postgres array slices)
	atOperator    bool // a bare '@' is an operator (Postgres absolute value)

	// The vocabulary, as lists from tables.go.
	keywords, functions []string

	class [256]uint8 // byte classes and identifier flags (byteClasses)
	words wordTable  // keywords and functions, one probe per word
}

// specs is indexed by Dialect. Out-of-range values clamp to MySQL in
// spec(), keeping Lex total on arbitrary (corrupt) Dialect ints.
var specs = [numDialects]dialectSpec{
	MySQL: {
		name:                "mysql",
		backslashEscapes:    true,
		backtickIdent:       true,
		questionPlaceholder: true,
		colonPlaceholder:    true,
		dollarIdentStart:    true,
		hashComment:         true,
		dashDashNeedsSpace:  true,
		atVariable:          true,
		keywords:            mysqlKeywords,
		functions:           mysqlFunctions,
	},
	Postgres: {
		name:             "postgres",
		doubleQuoteIdent: true,
		eStrings:         true,
		dollarQuote:      true,
		dollarNumber:     true,
		hashOperator:     true,
		// standard_conforming_strings=on: backslash is a plain byte, only
		// a doubled quote escapes inside '…'.
		nestedBlockComment: true,
		colonOperator:      true,
		atOperator:         true,
		keywords:           postgresKeywords,
		functions:          postgresFunctions,
	},
	SQLite: {
		name:                "sqlite",
		doubleQuoteIdent:    true,
		backtickIdent:       true, // MySQL-compat quoting SQLite accepts
		questionPlaceholder: true,
		questionNumber:      true,
		colonPlaceholder:    true,
		dollarName:          true,
		atPlaceholder:       true,
		keywords:            sqliteKeywords,
		functions:           sqliteFunctions,
	},
}

func init() {
	for i := range specs {
		sp := &specs[i]
		sp.class = sp.byteClasses()
		sp.words = buildWordTable(sp.keywords, sp.functions)
	}
}

func (d Dialect) spec() *dialectSpec {
	if !d.Valid() {
		d = MySQL
	}
	return &specs[d]
}

// Lex tokenizes query under dialect d. Like Lex, it never fails: malformed
// input produces Unterminated or KindInvalid tokens, because a defense must
// be able to reason about queries an attacker deliberately malformed. The
// result is one allocation of exactly the stream's length: the lex runs in
// pooled scratch, which is cleared before it is pooled again because the
// tokens hold query text.
func (d Dialect) Lex(query string) []Token {
	p := lexScratch.Get().(*[]Token)
	toks := d.AppendLex((*p)[:0], query)
	out := make([]Token, len(toks))
	copy(out, toks)
	clear(toks)
	if cap(toks) <= maxPooledLex {
		*p = toks[:0]
		lexScratch.Put(p)
	}
	return out
}

// lexScratch holds Lex's scratch streams; one grown past maxPooledLex
// tokens is left to the collector.
var lexScratch = sync.Pool{New: func() any { return new([]Token) }}

const maxPooledLex = 4096

// AppendLex appends the tokens of query under d to dst and returns the
// extended slice, so a caller holding a buffer (a pooled per-check state,
// say) lexes without allocating once the buffer is big enough. With a
// zero-capacity dst it sizes one new slice for the query with headroom
// (len(query)/4+4 tokens). The result is never nil, so nil can mean "not
// lexed".
func (d Dialect) AppendLex(dst []Token, query string) []Token {
	if cap(dst) == 0 {
		dst = make([]Token, 0, len(query)/4+4)
	}
	return d.spec().lex(dst, query)
}

// IsKeyword reports whether word (case-insensitive) is a keyword of d.
func (d Dialect) IsKeyword(word string) bool {
	return d.spec().classify(word)&wordKeyword != 0
}

// IsBuiltinFunction reports whether name (case-insensitive) is a built-in
// function of d.
func (d Dialect) IsBuiltinFunction(name string) bool {
	return d.spec().classify(name)&wordFunction != 0
}

// ContainsSQLToken reports whether s lexes under d to at least one token
// that is meaningful for fragment retention: a keyword, function, operator,
// punctuation, comment, string or quoted-identifier token.
func (d Dialect) ContainsSQLToken(s string) bool {
	for _, t := range d.Lex(s) {
		switch t.Kind {
		case KindKeyword, KindFunction, KindOperator, KindPunct, KindComment,
			KindString, KindBacktick:
			return true
		}
	}
	return false
}
