// Package profile implements the third analyzer stage of the hybrid:
// per-call-site query-skeleton profiles in the SQLBlock style ("You shall
// not pass"). A learning phase records, for every database call site, the
// normalized skeleton of each query the site legitimately issues; in
// enforcement a query whose skeleton was never seen from its call site is
// flagged, closing the hybrid's residual blind spot — short payloads
// rebuilt entirely from trusted fragments that also survive approximate
// input matching, and second-order attacks whose payload never appears in
// the current request's inputs.
//
// The skeleton normalization is deliberately more aggressive than
// sqlparse.StructureKey (whose byte-exactness is a soundness requirement
// of the PTI query-structure cache): literals fold to a single marker,
// whitespace between tokens carries no weight, keyword and identifier
// case folds, AS-aliases fold, and homogeneous IN-lists of literals fold
// to one element — so benign parameter drift (different ids, different
// list lengths, reformatted queries) lands on one skeleton, while any
// structural change an injection causes (an extra OR term, a UNION arm, a
// comment, a truncated WHERE) lands on a new one.
package profile

import (
	"strings"
	"unicode/utf8"

	"joza/internal/sqltoken"
)

// Literal markers emitted by Skeleton. A number or placeholder folds to
// Value; a string literal folds to StringValue regardless of its quoting
// or content.
const (
	valueMarker  = "?"
	stringMarker = "'?'"
	// commentMarker stands in for any comment token: comments are
	// structure (an injected `-- ` changes the skeleton) but their text is
	// attacker-controlled noise.
	commentMarker = "/*?*/"
)

// Skeleton returns the profile skeleton of a query under the MySQL
// dialect: a deterministic, whitespace- and literal-insensitive rendering
// of its token structure. It never fails; unlexable bytes pass through as
// their own tokens. The empty query yields the empty skeleton.
func Skeleton(query string) string {
	return SkeletonDialect(sqltoken.MySQL, query)
}

// SkeletonDialect is Skeleton tokenized under dialect d. Skeletons from
// different dialects are not comparable — the same bytes can fold
// differently (a dollar-quoted body is one string marker in Postgres and
// live tokens in MySQL) — which is why the store header records the
// dialect it was trained under.
func SkeletonDialect(d sqltoken.Dialect, query string) string {
	toks := d.Lex(query)
	// Each token adds at most one separator, and a marker rarely outgrows
	// its literal, so this capacity usually avoids regrowth.
	return string(AppendSkeleton(make([]byte, 0, len(query)+len(toks)), toks))
}

// AppendSkeleton appends the skeleton of the token stream toks to dst and
// returns the extended buffer. Each token contributes one space-separated
// part: a marker for a literal or comment, the upper-cased text of a word
// (a value marker for the name after AS), and the raw text of anything
// else. Every `IN ( lit , lit , ... )` run whose elements are all literal
// markers folds to `IN ( ? )`, so benign IN-list length drift does not
// fragment profiles; lists holding anything else (subqueries,
// expressions) are structure and stay intact. It allocates only to grow
// dst and to upper-case non-ASCII words.
func AppendSkeleton(dst []byte, toks []sqltoken.Token) []byte {
	afterAS := false
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if i > 0 {
			dst = append(dst, ' ')
		}
		mark := len(dst)
		switch p := fixedPart(t); {
		case p != "":
			dst = append(dst, p...)
		case afterAS && t.Kind != sqltoken.KindKeyword && t.Kind != sqltoken.KindFunction:
			// Alias folding: the name after AS is presentation, not
			// structure — SELECT a AS x and SELECT a AS y are one
			// skeleton.
			dst = append(dst, valueMarker...)
		default:
			dst = appendUpper(dst, t.Text)
		}
		afterAS = t.Kind == sqltoken.KindKeyword && string(dst[mark:]) == "AS"
		if string(dst[mark:]) == "IN" {
			if end := inListEnd(toks, i+1); end > 0 {
				dst = append(dst, " ( "+valueMarker+" )"...)
				i = end
			}
		}
	}
	return dst
}

// fixedPart returns the skeleton part of a token whose part depends on
// neither case nor position: the marker of a literal or comment, or the
// raw text of an operator, punctuation or invalid byte. It returns "" for
// the word kinds, which AppendSkeleton upper-cases or alias-folds.
func fixedPart(t sqltoken.Token) string {
	switch t.Kind {
	case sqltoken.KindNumber, sqltoken.KindPlaceholder:
		return valueMarker
	case sqltoken.KindString:
		return stringMarker
	case sqltoken.KindComment:
		return commentMarker
	case sqltoken.KindKeyword, sqltoken.KindFunction, sqltoken.KindIdent, sqltoken.KindBacktick, sqltoken.KindVariable:
		return ""
	default:
		return t.Text
	}
}

// inListEnd returns the index of the ")" closing a foldable IN-list whose
// "(" is toks[open] — one or more literal markers separated by commas —
// or -1 when the tokens from open do not form one. A word never upper-
// cases to a marker or to punctuation, and an element is never the name
// after AS, so the fixed parts decide it.
func inListEnd(toks []sqltoken.Token, open int) int {
	if open >= len(toks) || fixedPart(toks[open]) != "(" {
		return -1
	}
	expectElem := true
	for j := open + 1; j < len(toks); j++ {
		p := fixedPart(toks[j])
		switch {
		case expectElem && (p == valueMarker || p == stringMarker):
			expectElem = false
		case !expectElem && p == ")":
			return j
		case !expectElem && p == ",":
			expectElem = true
		default:
			return -1
		}
	}
	return -1
}

// appendUpper appends s upper-cased exactly as strings.ToUpper would,
// without allocating for ASCII text.
func appendUpper(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToUpper(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
