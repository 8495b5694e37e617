package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"joza/internal/sqltoken"
)

func TestVerdictDetectedBy(t *testing.T) {
	v := Verdict{
		NTI: Result{Analyzer: AnalyzerNTI, Attack: true},
		PTI: Result{Analyzer: AnalyzerPTI, Attack: false},
	}
	got := v.DetectedBy()
	if len(got) != 1 || got[0] != AnalyzerNTI {
		t.Errorf("DetectedBy = %v", got)
	}
	v.PTI.Attack = true
	if got := v.DetectedBy(); len(got) != 2 {
		t.Errorf("DetectedBy = %v", got)
	}
	if got := (Verdict{}).DetectedBy(); len(got) != 0 {
		t.Errorf("DetectedBy = %v", got)
	}
}

func TestVerdictReasonsUnion(t *testing.T) {
	v := Verdict{
		NTI: Result{Reasons: []Reason{{Detail: "a"}}},
		PTI: Result{Reasons: []Reason{{Detail: "b"}, {Detail: "c"}}},
	}
	if got := v.Reasons(); len(got) != 3 {
		t.Errorf("Reasons = %v", got)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyTerminate.String() != "terminate" ||
		PolicyErrorVirtualize.String() != "error-virtualization" ||
		Policy(0).String() != "unknown" {
		t.Error("Policy.String mismatch")
	}
}

func TestAttackErrorMessage(t *testing.T) {
	err := &AttackError{
		Verdict: Verdict{NTI: Result{Attack: true}},
		Policy:  PolicyTerminate,
	}
	msg := err.Error()
	if !strings.Contains(msg, "NTI") || !strings.Contains(msg, "terminate") {
		t.Errorf("msg = %q", msg)
	}
	neither := &AttackError{Policy: PolicyErrorVirtualize}
	if !strings.Contains(neither.Error(), "joza") {
		t.Errorf("msg = %q", neither.Error())
	}
}

func TestReasonString(t *testing.T) {
	r := Reason{
		Token:  sqltoken.Token{Kind: sqltoken.KindKeyword, Text: "OR", Start: 10, End: 12},
		Detail: "negatively tainted",
	}
	s := r.String()
	for _, want := range []string{"keyword", "OR", "10", "12", "negatively tainted"} {
		if !strings.Contains(s, want) {
			t.Errorf("Reason.String() = %q missing %q", s, want)
		}
	}
}

func TestRenderMarkings(t *testing.T) {
	q := "SELECT id FROM t WHERE id=-1 OR 1=1"
	toks := sqltoken.Lex(q)
	crit := sqltoken.CriticalTokens(toks)
	negStart := strings.Index(q, "-1 OR")
	neg := []Marking{{Span: sqltoken.Span{Start: negStart, End: len(q)}, Source: "get:id"}}
	pos := []Marking{{Span: sqltoken.Span{Start: 0, End: negStart}, Source: "frag"}}
	out := RenderMarkings(q, neg, pos, crit)
	lines := strings.Split(out, "\n")
	if len(lines) < 3 {
		t.Fatalf("render = %q", out)
	}
	if lines[0] != q {
		t.Errorf("line 0 = %q", lines[0])
	}
	// The OR keyword position must carry '-' on the marker line and 'c' on
	// the critical line.
	orPos := strings.Index(q, "OR")
	if lines[1][orPos] != '-' {
		t.Errorf("marker at OR = %q", string(lines[1][orPos]))
	}
	if lines[2][orPos] != 'c' {
		t.Errorf("critical at OR = %q", string(lines[2][orPos]))
	}
	// SELECT is positively tainted.
	if lines[1][0] != '+' {
		t.Errorf("marker at SELECT = %q", string(lines[1][0]))
	}
	// Negative wins where both overlap: craft overlap explicitly.
	out2 := RenderMarkings("ab", []Marking{{Span: sqltoken.Span{Start: 0, End: 2}}},
		[]Marking{{Span: sqltoken.Span{Start: 0, End: 2}}}, nil)
	if strings.Split(out2, "\n")[1] != "--" {
		t.Errorf("overlap render = %q", out2)
	}
}

func TestRenderMarkingsClampsOutOfRange(t *testing.T) {
	out := RenderMarkings("ab", []Marking{{Span: sqltoken.Span{Start: 0, End: 99}}}, nil,
		[]sqltoken.Token{{Start: 1, End: 99}})
	lines := strings.Split(out, "\n")
	if lines[1] != "--" || lines[2] != " c" {
		t.Errorf("clamped render = %q", out)
	}
}

// legacyText is how a reason rendered before reasons were structured:
// fmt over the token and a detail formatted when the reason was built.
func legacyText(r Reason) string {
	detail := r.Detail
	switch r.Kind {
	case ReasonNTI:
		detail = fmt.Sprintf("negatively tainted by input %s (distance %d over %d bytes)", r.Input, r.Distance, r.Width)
	case ReasonUnseen:
		detail = fmt.Sprintf("query skeleton never seen from call site %q during training: %s", r.Site, r.Skeleton)
	case ReasonSiteUnknown:
		detail = fmt.Sprintf("call site %q has no training profile (strict mode)", r.Site)
	}
	return fmt.Sprintf("%s token %q at %d..%d: %s",
		r.Token.Kind, r.Token.Text, r.Token.Start, r.Token.End, detail)
}

// TestReasonTextMatchesLegacyFormat pins String, AppendText and
// DetailText for every reason kind to the fmt rendering they replace,
// including token text that needs quoting and bytes that are not UTF-8.
func TestReasonTextMatchesLegacyFormat(t *testing.T) {
	tok := sqltoken.Token{Kind: sqltoken.KindKeyword, Text: "OR", Start: 39, End: 41}
	odd := sqltoken.Token{Kind: sqltoken.KindComment, Text: "/*\\'\"\x00\xff é*/", Start: -1, End: 1 << 40}
	for _, r := range []Reason{
		{},
		{Token: tok, Detail: "critical token not contained in any trusted fragment"},
		{Token: odd, Detail: "analyzer PTI panicked (fail-closed): \xfe"},
		{Token: tok, Kind: ReasonNTI, Input: "get:cat", Distance: 0, Width: 8},
		{Token: odd, Kind: ReasonNTI, Input: "header:a,b,get:\"x\"\xff", Distance: 3, Width: 21},
		{Kind: ReasonUnseen, Site: "plugin:a-to-z", Skeleton: "SELECT ID FROM T WHERE ID = ? OR ? = ?"},
		{Kind: ReasonUnseen, Site: "s\"\n\xff", Skeleton: "\x01<&>"},
		{Kind: ReasonSiteUnknown, Site: "plugin:unknown"},
		{Kind: ReasonSiteUnknown, Site: "\t "},
	} {
		want := legacyText(r)
		if got := r.String(); got != want {
			t.Errorf("String() = %q\n          want %q", got, want)
		}
		if got := string(r.AppendText([]byte("prefix|"))); got != "prefix|"+want {
			t.Errorf("AppendText = %q, want the prefix then %q", got, want)
		}
		if got, want := r.DetailText(), want[strings.Index(want, ": ")+2:]; got != want {
			t.Errorf("DetailText() = %q, want %q", got, want)
		}
	}
}

// TestMarkingSize pins Marking at 48 bytes: a span and two strings.
func TestMarkingSize(t *testing.T) {
	if n := unsafe.Sizeof(Marking{}); n > 48 {
		t.Fatalf("Marking is %d bytes, want at most 48", n)
	}
}

// TestMarkingLabel: a named input's marking keeps source and name apart
// and renders "source:name"; an input with an empty name, whose split
// pair would read as a whole label, keeps the rendered key; a whole label
// renders as itself.
func TestMarkingLabel(t *testing.T) {
	span := sqltoken.Span{Start: 1, End: 3}
	for _, tc := range []struct {
		m            Marking
		source, name string
		label        string
	}{
		{InputMarking(span, "get", "id"), "get", "id", "get:id"},
		{InputMarking(span, "a:b", "c,d"), "a:b", "c,d", "a:b:c,d"},
		{InputMarking(span, "get", ""), "get:", "", "get:"},
		{InputMarking(span, "", ""), ":", "", ":"},
		{InputMarking(span, "", "x"), "", "x", ":x"},
		{Marking{Span: span, Source: "header:x,get:x"}, "header:x,get:x", "", "header:x,get:x"},
		{Marking{Span: span, Source: "SELECT * FROM t"}, "SELECT * FROM t", "", "SELECT * FROM t"},
	} {
		if tc.m.Span != span || tc.m.Source != tc.source || tc.m.Name != tc.name || tc.m.Label() != tc.label {
			t.Errorf("marking %+v labelled %q, want source %q, name %q, label %q", tc.m, tc.m.Label(), tc.source, tc.name, tc.label)
		}
	}
}
