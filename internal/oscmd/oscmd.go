// Package oscmd applies Joza's hybrid taint inference to OS command
// injection — the attack class positive taint inference was originally
// developed for (the paper's reference [22]) and which the Joza paper
// generalizes to SQL. Providing both closes the loop: the same hybrid
// model, over a shell-command token stream instead of a SQL one.
//
// The threat model mirrors the SQL case: a program builds a command line
// from trusted program text plus untrusted input. An injection occurs when
// input contributes a critical shell token — a command separator (;, &&,
// ||, |, &, newline), a redirection (>, <, >>), command substitution
// (`...` or $(...)), a subshell, or the command word of a new pipeline
// segment.
//
//   - NTI: approximate-match raw inputs against the command line; a
//     critical token derived from input is an attack.
//   - PTI: trust only fragments extracted from the program; a critical
//     token not contained in a single fragment is an attack.
//   - Hybrid: safe iff both agree.
package oscmd

import (
	"context"
	"strings"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/nti"
	"joza/internal/sqltoken"
	"joza/internal/strdist"
)

// TokenKind classifies shell tokens.
type TokenKind int

// Shell token kinds.
const (
	// KindWord is a plain word (argument or command name).
	KindWord TokenKind = iota + 1
	// KindCommandWord is the first word of a pipeline segment — the
	// program that will execute.
	KindCommandWord
	// KindOperator is a control or redirection operator.
	KindOperator
	// KindString is a quoted string ('...' or "...").
	KindString
	// KindSubstitution is `...` or $(...) command substitution, treated
	// as one critical token like SQL comments are.
	KindSubstitution
	// KindVariable is a $name or ${name} reference.
	KindVariable
)

// String returns the kind name.
func (k TokenKind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindCommandWord:
		return "command"
	case KindOperator:
		return "operator"
	case KindString:
		return "string"
	case KindSubstitution:
		return "substitution"
	case KindVariable:
		return "variable"
	default:
		return "unknown"
	}
}

// Token is one shell token with its byte span.
type Token struct {
	Kind  TokenKind
	Text  string
	Start int
	End   int
}

// Critical reports whether the token can change what gets executed:
// operators, substitutions, and command words.
func (t Token) Critical() bool {
	switch t.Kind {
	case KindOperator, KindSubstitution, KindCommandWord:
		return true
	default:
		return false
	}
}

// Lex tokenizes a shell command line. Like the SQL lexer it never fails:
// malformed input yields best-effort tokens, because a defense must reason
// about deliberately malformed commands.
func Lex(cmd string) []Token {
	var toks []Token
	i := 0
	commandPosition := true // next word is a command name
	emit := func(kind TokenKind, start, end int) {
		toks = append(toks, Token{Kind: kind, Text: cmd[start:end], Start: start, End: end})
	}
	for i < len(cmd) {
		c := cmd[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '\n' || c == ';':
			emit(KindOperator, i, i+1)
			i++
			commandPosition = true
		case c == '&' || c == '|':
			start := i
			if i+1 < len(cmd) && cmd[i+1] == c {
				i += 2
			} else {
				i++
			}
			emit(KindOperator, start, i)
			commandPosition = true
		case c == '>' || c == '<':
			start := i
			if c == '>' && i+1 < len(cmd) && cmd[i+1] == '>' {
				i += 2
			} else {
				i++
			}
			emit(KindOperator, start, i)
		case c == '(' || c == ')' || c == '{' && isolatedBrace(cmd, i) || c == '}' && isolatedBrace(cmd, i):
			emit(KindOperator, i, i+1)
			i++
			if c == '(' || c == '{' {
				commandPosition = true
			}
		case c == '`':
			start := i
			i++
			for i < len(cmd) && cmd[i] != '`' {
				i++
			}
			if i < len(cmd) {
				i++
			}
			emit(KindSubstitution, start, i)
		case c == '$' && i+1 < len(cmd) && cmd[i+1] == '(':
			start := i
			depth := 0
			for i < len(cmd) {
				if cmd[i] == '(' {
					depth++
				} else if cmd[i] == ')' {
					depth--
					if depth == 0 {
						i++
						break
					}
				}
				i++
			}
			emit(KindSubstitution, start, i)
		case c == '$':
			start := i
			i++
			if i < len(cmd) && cmd[i] == '{' {
				for i < len(cmd) && cmd[i] != '}' {
					i++
				}
				if i < len(cmd) {
					i++
				}
			} else {
				for i < len(cmd) && isNameByte(cmd[i]) {
					i++
				}
			}
			emit(KindVariable, start, i)
		case c == '\'' || c == '"':
			start := i
			quote := c
			i++
			for i < len(cmd) {
				if cmd[i] == '\\' && quote == '"' && i+1 < len(cmd) {
					i += 2
					continue
				}
				if cmd[i] == quote {
					i++
					break
				}
				i++
			}
			emit(KindString, start, i)
			commandPosition = false
		default:
			start := i
			for i < len(cmd) && !isBreakByte(cmd[i]) {
				if cmd[i] == '\\' && i+1 < len(cmd) {
					i++
				}
				i++
			}
			kind := KindWord
			if commandPosition {
				kind = KindCommandWord
				commandPosition = false
			}
			emit(kind, start, i)
		}
	}
	return toks
}

func isolatedBrace(cmd string, i int) bool {
	// Heuristic: a brace is a control operator only when surrounded by
	// whitespace/edges (as in `{ cmd; }`), not inside words like file{1}.
	before := i == 0 || cmd[i-1] == ' ' || cmd[i-1] == '\t' || cmd[i-1] == ';'
	after := i+1 >= len(cmd) || cmd[i+1] == ' ' || cmd[i+1] == '\t' || cmd[i+1] == ';'
	return before && after
}

func isNameByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isBreakByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', ';', '&', '|', '>', '<', '`', '$', '\'', '"', '(', ')':
		return true
	}
	return false
}

// coversWholeToken reports whether [start, end) fully contains a token.
func coversWholeToken(toks []Token, start, end int) bool {
	for _, t := range toks {
		if t.Start >= start && t.End <= end {
			return true
		}
	}
	return false
}

// Guard is the hybrid command-injection detector. Construct with New.
// Like the SQL Guard it is a thin front door over the shared
// internal/engine pipeline: a shell-PTI stage followed by a shell-NTI
// stage, both reading one token stream lexed once per check.
type Guard struct {
	fragments []string
	threshold float64
	eng       *engine.Engine
}

// Option configures a Guard.
type Option func(*Guard)

// WithThreshold sets the NTI difference-ratio threshold (default 0.20).
func WithThreshold(t float64) Option {
	return func(g *Guard) { g.threshold = t }
}

// New builds a Guard over the program's trusted command fragments (string
// literals that participate in command construction). Fragments that
// contain no critical shell token are dropped; empty strings and
// duplicates likewise.
func New(fragments []string, opts ...Option) *Guard {
	g := &Guard{threshold: nti.DefaultThreshold}
	seen := make(map[string]bool, len(fragments))
	for _, f := range fragments {
		if f == "" || seen[f] {
			continue
		}
		seen[f] = true
		if !containsShellToken(f) {
			continue
		}
		g.fragments = append(g.fragments, f)
	}
	for _, o := range opts {
		o(g)
	}
	g.eng = engine.New(&engine.Snapshot{
		Analyzers: []engine.Analyzer{shellPTIStage{g: g}, shellNTIStage{g: g}},
	})
	return g
}

// containsShellToken reports whether s contributes anything a critical
// token could need: any word, operator or substitution. (Unlike SQL, a
// plain word is retainable: it may be a command name.)
func containsShellToken(s string) bool {
	return len(Lex(s)) > 0
}

// FragmentCount returns the retained trusted fragment count.
func (g *Guard) FragmentCount() int { return len(g.fragments) }

// Check analyzes a command line against the request's raw inputs and
// returns the hybrid verdict, bounded by ctx: cancellation aborts the NTI
// matcher mid-analysis and ctx's error comes back with no verdict
// recorded. Under context.Background() it cannot fail.
func (g *Guard) Check(ctx context.Context, cmd string, inputs []nti.Input) (v core.Verdict, err error) {
	err = g.eng.CheckInto(ctx, engine.Request{Query: cmd, Inputs: inputs}, &v)
	return v, err
}

// shellTokens returns the check's lexed token stream, lexing on first
// use and sharing it across stages through the engine state's aux slot.
func shellTokens(req *engine.Request, st *engine.State) []Token {
	if toks, ok := st.Aux().([]Token); ok {
		return toks
	}
	toks := Lex(req.Query)
	st.SetAux(toks)
	return toks
}

// shellPTIStage is the engine stage for shell positive taint inference.
type shellPTIStage struct{ g *Guard }

// Name implements engine.Analyzer.
func (s shellPTIStage) Name() string { return core.AnalyzerPTI }

// Analyze implements engine.Analyzer.
func (s shellPTIStage) Analyze(ctx context.Context, req *engine.Request, st *engine.State, res *core.Result) error {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	*res = s.g.analyzePTI(req.Query, shellTokens(req, st))
	return nil
}

// shellNTIStage is the engine stage for shell negative taint inference.
type shellNTIStage struct{ g *Guard }

// Name implements engine.Analyzer.
func (s shellNTIStage) Name() string { return core.AnalyzerNTI }

// Analyze implements engine.Analyzer.
func (s shellNTIStage) Analyze(ctx context.Context, req *engine.Request, st *engine.State, res *core.Result) error {
	r, err := s.g.analyzeNTI(ctx, req.Query, shellTokens(req, st), req.Inputs)
	*res = r
	return err
}

// analyzePTI requires every critical token to sit inside a single trusted
// fragment occurrence.
func (g *Guard) analyzePTI(cmd string, toks []Token) core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI}
	for _, t := range toks {
		if !t.Critical() {
			continue
		}
		if !g.covered(cmd, t) {
			res.Reasons = append(res.Reasons, core.Reason{
				Token:  toSQLToken(t),
				Detail: "critical shell token not contained in any trusted fragment",
			})
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res
}

// covered reports whether some fragment occurrence fully contains the
// token.
func (g *Guard) covered(cmd string, t Token) bool {
	for _, f := range g.fragments {
		if len(f) < t.End-t.Start {
			continue
		}
		from := 0
		for {
			idx := strings.Index(cmd[from:], f)
			if idx < 0 {
				break
			}
			start := from + idx
			if start <= t.Start && t.End <= start+len(f) {
				return true
			}
			from = start + 1
		}
	}
	return false
}

// analyzeNTI approximate-matches inputs against the command line. ctx
// cancellation aborts the edit-distance matcher between DP columns.
func (g *Guard) analyzeNTI(ctx context.Context, cmd string, toks []Token, inputs []nti.Input) (core.Result, error) {
	res := core.Result{Analyzer: core.AnalyzerNTI}
	for _, in := range inputs {
		if in.Value == "" {
			continue
		}
		m, err := strdist.SubstringMatchCtx(ctx, in.Value, cmd)
		if err != nil {
			return core.Result{Analyzer: core.AnalyzerNTI}, err
		}
		if m.Ratio() >= g.threshold {
			continue
		}
		if !coversWholeToken(toks, m.Start, m.End) {
			continue
		}
		res.Markings = append(res.Markings, core.InputMarking(spanOf(m.Start, m.End), in.Source, in.Name))
		for _, t := range toks {
			if t.Critical() && m.Start <= t.Start && t.End <= m.End {
				res.Reasons = append(res.Reasons, core.Reason{
					Token:  toSQLToken(t),
					Detail: "critical shell token negatively tainted by input " + in.Key(),
				})
			}
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res, nil
}

// toSQLToken adapts a shell token into the shared reason structure. The
// core package's Reason carries a sqltoken.Token; shell kinds map onto the
// closest SQL kinds (operators stay operators, substitutions — like SQL
// comments — are single opaque critical blobs, command words act as
// keywords).
func toSQLToken(t Token) sqltoken.Token {
	kind := sqltoken.KindInvalid
	switch t.Kind {
	case KindOperator:
		kind = sqltoken.KindOperator
	case KindSubstitution:
		kind = sqltoken.KindComment
	case KindCommandWord:
		kind = sqltoken.KindKeyword
	case KindWord:
		kind = sqltoken.KindIdent
	case KindString:
		kind = sqltoken.KindString
	case KindVariable:
		kind = sqltoken.KindVariable
	}
	return sqltoken.Token{Kind: kind, Text: t.Text, Start: t.Start, End: t.End}
}

// spanOf builds a byte span.
func spanOf(start, end int) sqltoken.Span {
	return sqltoken.Span{Start: start, End: end}
}
