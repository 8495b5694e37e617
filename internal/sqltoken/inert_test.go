package sqltoken

import "testing"

// policies are the two critical-token policies NTI enforces.
var policies = map[string]func(Token) bool{
	"pragmatic": Token.Critical,
	"strict":    Token.CriticalStrict,
}

// TestInertBytesAreDigits pins what the derivation finds today: the ASCII
// digits, in every dialect, and nothing else.
func TestInertBytesAreDigits(t *testing.T) {
	for _, d := range Dialects() {
		set := d.InertBytes()
		for b := range set {
			if set[b] != isDigit(byte(b)) {
				t.Errorf("%s: byte %q inert = %v, want %v", d, byte(b), set[b], isDigit(byte(b)))
			}
		}
	}
	if Dialect(99).InertBytes() != MySQL.InertBytes() {
		t.Error("an invalid dialect does not clamp to MySQL's set")
	}
}

// TestCriticalTokensHoldNonInertByte checks the rule NTI's lex skip rests
// on from the other side: every token a policy counts as critical holds a
// byte outside the inert set, and a number is critical under neither
// policy. The tokens come from every dialect's whole vocabulary (each
// keyword, and each function before a parenthesis), the operator,
// delimiter, comment, quoting and placeholder forms, and every string of
// one or two bytes.
func TestCriticalTokensHoldNonInertByte(t *testing.T) {
	for name, critical := range policies {
		if critical(Token{Kind: KindNumber}) {
			t.Fatalf("%s policy counts a number as critical", name)
		}
	}
	forms := []string{
		"= <= >= <> != || && := << >> ! + - * / % | & ^ ~ # :: @ ? :",
		"( ) , ; . -- x\n# x\n/* x */ /* a /* b */ c */",
		"'s' \"s\" `b` E'e' $$d$$ $t$d$t$ $1 ?1 :n @n @@n $n",
		"x1 _1 $1a 1a a1 0x1F 1e5 1.5 .5 1e+5",
	}
	for _, d := range Dialects() {
		sp := d.spec()
		var corpus []string
		corpus = append(corpus, forms...)
		for _, w := range sp.keywords {
			corpus = append(corpus, w)
		}
		for _, w := range sp.functions {
			corpus = append(corpus, w+"(1)")
		}
		var two [2]byte
		for b := range 256 {
			two[0] = byte(b)
			corpus = append(corpus, string(two[:1]))
			for x := range 256 {
				two[1] = byte(x)
				corpus = append(corpus, string(two[:]))
			}
		}
		inert := d.InertBytes()
		for _, src := range corpus {
			for _, tok := range d.Lex(src) {
				if !allInert(inert, tok.Text) {
					continue
				}
				for name, critical := range policies {
					if critical(tok) {
						t.Fatalf("%s: %s-critical %s token %q (in %q) is made only of inert bytes", d, name, tok.Kind, tok.Text, src)
					}
				}
			}
		}
	}
}

func allInert(inert *[256]bool, s string) bool {
	for i := 0; i < len(s); i++ {
		if !inert[s[i]] {
			return false
		}
	}
	return true
}

// TestInertStringsLexAsNumbers checks the skip's premise directly: every
// token lying inside a run of inert bytes is a number. The runs are every
// inert string of one to three bytes, inside surrounding text that starts
// or continues other tokens. Then, for every inert byte, the lexer must
// start a number at it before every two-byte continuation, which covers
// the whole window the lexer's dispatch reads.
func TestInertStringsLexAsNumbers(t *testing.T) {
	befores := []string{"", " ", "x", "x=", "-", "--", ".", "$", "?", ":", "@", "E", "0x", "1e", "#", "/", "/*", "'", "a.", "=-"}
	afters := []string{"", " ", "x", "e", "E", ".", "'", "-", "- ", "+1", "$", "(", "*/", "\n", "x'"}
	for _, d := range Dialects() {
		inert := d.InertBytes()
		var digits []byte
		for b := range inert {
			if inert[b] {
				digits = append(digits, byte(b))
			}
		}
		runs := []string{""}
		for n := 1; n <= 3; n++ {
			var next []string
			for _, r := range runs {
				for _, b := range digits {
					next = append(next, r+string(b))
				}
			}
			runs = next
			for _, run := range runs {
				for _, before := range befores {
					for _, after := range afters {
						src := before + run + after
						lo, hi := len(before), len(before)+len(run)
						for _, tok := range d.Lex(src) {
							if tok.Start >= lo && tok.End <= hi && tok.Kind != KindNumber {
								t.Fatalf("%s: %s token %q inside inert run %q of %q", d, tok.Kind, tok.Text, run, src)
							}
						}
					}
				}
			}
		}
		var buf []Token
		var probe [3]byte
		for _, b := range digits {
			probe[0] = b
			for x := range 256 {
				probe[1] = byte(x)
				for y := range 256 {
					probe[2] = byte(y)
					buf = d.AppendLex(buf[:0], string(probe[:]))
					if buf[0].Kind != KindNumber || buf[0].Start != 0 {
						t.Fatalf("%s: %q lexes first to %s %q", d, probe[:], buf[0].Kind, buf[0].Text)
					}
				}
			}
		}
	}
}
