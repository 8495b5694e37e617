package sqltoken

import "sync"

// InertBytes returns d's inert-byte set: bytes from which the lexer forms
// no token but a number. A span of a query made only of inert bytes
// therefore contains no keyword, function, operator, delimiter, comment,
// identifier or placeholder, whatever surrounds it, so NTI can tell that
// an input matching only such a span yields no attack reason without
// lexing the query. In every dialect the set is the ASCII digits. The set
// is derived from the lexer on first use (deriveInert); callers must not
// modify it.
func (d Dialect) InertBytes() *[256]bool {
	if !d.Valid() {
		d = MySQL
	}
	return inertSets[d]()
}

// inertSets derives each dialect's inert-byte set once, on first use.
var inertSets = func() (sets [numDialects]func() *[256]bool) {
	for d := range sets {
		sets[d] = sync.OnceValue(func() *[256]bool {
			set := deriveInert(Dialect(d))
			return &set
		})
	}
	return sets
}()

// deriveInert asks d's lexer which bytes are inert: those it lexes, on
// their own, as a number. The lexer's dispatch decides a token's kind from
// the bytes at and after its start, never before it, and a token made only
// of inert bytes starts at one; so the set is sound as long as the bytes
// after an inert one never turn the dispatch away from a number. Today
// they cannot, because every dialect's byte-class table puts the digits
// in the number class, whatever follows.
// TestInertStringsLexAsNumbers checks every two-byte continuation, the
// whole window the dispatch reads, so a lexer change that broke this fails
// there.
func deriveInert(d Dialect) (set [256]bool) {
	var all [256]byte
	for b := range all {
		all[b] = byte(b)
	}
	one := string(all[:])
	var toks []Token
	for b := range set {
		toks = d.AppendLex(toks[:0], one[b:b+1])
		set[b] = len(toks) == 1 && toks[0].Kind == KindNumber
	}
	return set
}
