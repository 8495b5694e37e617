package sqltoken

import (
	"reflect"
	"testing"
)

// FuzzLexDialects drives arbitrary bytes through every dialect and checks
// the lexer's structural contract: it never panics, every token's span
// reproduces its text, spans are ordered and exactly tile the input (the
// only bytes outside tokens are whitespace), and re-lexing is
// deterministic. AppendLex into a dirty buffer must equal Lex: one buffer
// still holds the previous input's tokens, another is too small for the
// query. The CI fuzz-smoke job runs this for 30s per push; the seeds below
// cover every dialect-sensitive construct.
func FuzzLexDialects(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM records WHERE ID=1 LIMIT 5",
		"SELECT * FROM t WHERE name = '" + `\' UNION SELECT usename FROM pg_user -- ` + "'",
		"$$a'b$$ UNION $tag$x$tag$",
		"$1 $23 $name ?3 :name @name @@sys",
		`"quoted""ident" E'\n' e'x'`,
		"/* a /* b */ c */ # hash -- tail",
		"a::text || b::int[2:3]",
		"0x1F 2.5E-3 .5 'open",
		"`tick` $unclosed$ body",
		"\x00\xff'\\",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// prev carries each dialect's tokens from one input to the next, so
	// the buffer AppendLex overwrites is dirty with another query's lex.
	prev := make([][]Token, len(Dialects()))
	f.Fuzz(func(t *testing.T, q string) {
		for di, d := range Dialects() {
			toks := d.Lex(q)
			prevEnd := 0
			for i, tok := range toks {
				if tok.Start < prevEnd || tok.End > len(q) || tok.Start >= tok.End {
					t.Fatalf("%s: token %d has bad span %d:%d (prev end %d, len %d)",
						d, i, tok.Start, tok.End, prevEnd, len(q))
				}
				if q[tok.Start:tok.End] != tok.Text {
					t.Fatalf("%s: token %d text %q != span bytes %q",
						d, i, tok.Text, q[tok.Start:tok.End])
				}
				for j := prevEnd; j < tok.Start; j++ {
					if !isSpaceByte(q[j]) {
						t.Fatalf("%s: non-whitespace byte %q at %d fell between tokens", d, q[j], j)
					}
				}
				prevEnd = tok.End
			}
			for j := prevEnd; j < len(q); j++ {
				if !isSpaceByte(q[j]) {
					t.Fatalf("%s: non-whitespace byte %q at %d after last token", d, q[j], j)
				}
			}
			if again := d.Lex(q); !reflect.DeepEqual(toks, again) {
				t.Fatalf("%s: re-lex is not deterministic", d)
			}
			got := d.AppendLex(prev[di][:0], q)
			if !reflect.DeepEqual(got, toks) {
				t.Fatalf("%s: AppendLex into the previous input's buffer = %v, Lex = %v", d, got, toks)
			}
			prev[di] = got
			small := []Token{{Kind: KindInvalid, Text: "stale", Start: 7, End: 12, Unterminated: true}}
			if got := d.AppendLex(small[:0], q); !reflect.DeepEqual(got, toks) {
				t.Fatalf("%s: AppendLex into a one-token buffer = %v, Lex = %v", d, got, toks)
			}
		}
	})
}
