package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"joza/internal/profile"
	"joza/internal/sqltoken"
)

// FuzzSkeletonNormalize asserts the invariants enforcement relies on:
// Skeleton never panics, is deterministic, matches the frozen seed builder
// byte for byte in every dialect, and is stable under the benign mutations
// it exists to absorb — added whitespace and changed numeric literals — so
// profile lookups cannot fragment on parameter drift.
func FuzzSkeletonNormalize(f *testing.F) {
	f.Add("SELECT * FROM posts WHERE id=5")
	f.Add("SELECT name FROM users WHERE login='alice' AND pass=MD5('x')")
	f.Add("SELECT * FROM t WHERE id IN (1, 2, 3) -- trailing")
	f.Add("INSERT INTO logs (msg) VALUES ('a'), ('b')")
	f.Add("SELECT 1 /* unterminated")
	f.Add("'lone string")
	f.Add("`backtick")
	f.Add("")
	f.Add("\x00\xff weird bytes 0x1f")
	// Edge cases of the in-place builder: words whose strings.ToUpper is
	// ASCII, invalid UTF-8, a quoted `in`, IN-lists of mixed and non-literal
	// elements, an alias, a word longer than the lexer's stack buffer.
	f.Add("ſelect * from t where ıd in (1, 2)")
	f.Add("SELECT \xc3\x28 FROM t WHERE a IN ('\xff', 2)")
	f.Add("SELECT * FROM t WHERE `in` (1, 2) AND b `in` (3)")
	f.Add("SELECT * FROM t WHERE a IN (?, :name, 'x')")
	f.Add("SELECT * FROM t WHERE a IN (1, c) OR b IN () OR c IN (1,) OR d IN (1")
	f.Add("SELECT a AS alias, b AS `q`, c AS in FROM t")
	f.Add("SELECT " + strings.Repeat("long_identifier_", 4) + " FROM t WHERE x IN (1)")
	f.Fuzz(func(t *testing.T, query string) {
		assertSeedSkeleton(t, query)
		sk := profile.Skeleton(query)
		if again := profile.Skeleton(query); again != sk {
			t.Fatalf("non-deterministic: %q then %q for %q", sk, again, query)
		}
		// Leading whitespace never reaches a token.
		if got := profile.Skeleton(" \t\n" + query); got != sk {
			t.Fatalf("leading whitespace changed skeleton: %q vs %q for %q", got, sk, query)
		}
		// Widening existing inter-token gaps (which are whitespace by
		// construction) must not change the skeleton.
		if wider := widenGaps(query); wider != query {
			if got := profile.Skeleton(wider); got != sk {
				t.Fatalf("gap widening changed skeleton: %q vs %q for %q -> %q", got, sk, query, wider)
			}
		}
		// Replacing a plain integer literal with other digits of the same
		// length keeps lexing identical around it; the skeleton must fold
		// both to the same marker.
		if mutated := mutateIntegers(query); mutated != query {
			if got := profile.Skeleton(mutated); got != sk {
				t.Fatalf("integer mutation changed skeleton: %q vs %q for %q -> %q", got, sk, query, mutated)
			}
		}
	})
}

// widenGaps inserts one extra space into every non-empty gap between
// consecutive tokens. Gaps contain only whitespace (the lexer consumes
// everything else), so this is a pure whitespace mutation.
func widenGaps(query string) string {
	toks := sqltoken.Lex(query)
	if len(toks) < 2 {
		return query
	}
	var sb strings.Builder
	prevEnd := 0
	for i, t := range toks {
		if i > 0 && t.Start > prevEnd {
			sb.WriteString(query[prevEnd:t.Start])
			sb.WriteByte(' ')
		} else {
			sb.WriteString(query[prevEnd:t.Start])
		}
		sb.WriteString(query[t.Start:t.End])
		prevEnd = t.End
	}
	sb.WriteString(query[prevEnd:])
	return sb.String()
}

// mutateIntegers rewrites every all-digit number token to a same-length run
// of a different digit. Same length and pure digits guarantee the mutant
// lexes to the same token sequence.
func mutateIntegers(query string) string {
	toks := sqltoken.Lex(query)
	var sb strings.Builder
	prevEnd := 0
	changed := false
	for _, t := range toks {
		sb.WriteString(query[prevEnd:t.Start])
		text := query[t.Start:t.End]
		if t.Kind == sqltoken.KindNumber && allDigits(text) {
			repl := byte('7')
			if text[0] == '7' {
				repl = '3'
			}
			sb.WriteString(strings.Repeat(string(repl), len(text)))
			changed = true
		} else {
			sb.WriteString(text)
		}
		prevEnd = t.End
	}
	sb.WriteString(query[prevEnd:])
	if !changed {
		return query
	}
	return sb.String()
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// FuzzProfileStore asserts the serialized format round-trips: any input
// Parse accepts must serialize to a canonical form that parses back to the
// same store, and that canonical form is a fixpoint (bit-identical on a
// second pass). Parse must never panic on arbitrary bytes.
func FuzzProfileStore(f *testing.F) {
	rec := profile.NewRecorder()
	rec.Record("plugin:posts", "SELECT * FROM posts WHERE id=5")
	rec.Record("plugin:login", "SELECT pass FROM users WHERE login='a'")
	f.Add(rec.Store().Bytes())
	f.Add([]byte(profile.Header + "\n"))
	f.Add([]byte(profile.Header + "\n" + `site "a"` + "\n" + `sk "SELECT ?"` + "\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := profile.Parse(data)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		canon := st.Bytes()
		st2, err := profile.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%q", err, canon)
		}
		if st2.Sites() != st.Sites() || st2.Skeletons() != st.Skeletons() {
			t.Fatalf("round trip changed counts: (%d, %d) -> (%d, %d)",
				st.Sites(), st.Skeletons(), st2.Sites(), st2.Skeletons())
		}
		if again := st2.Bytes(); !bytes.Equal(canon, again) {
			t.Fatalf("canonical form is not a fixpoint:\n%q\nvs\n%q", canon, again)
		}
	})
}
