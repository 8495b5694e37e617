// Package core defines the taint model shared by Joza's negative and
// positive taint-inference analyzers: taint markings over query spans,
// per-analyzer results, attack reasons, recovery policies, and the
// figure-style rendering of markings used throughout the paper
// (− negative taint, + positive taint, c critical token).
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// ErrOverBudget marks an analysis that exceeded a configured cost budget
// (query/input bytes, DP cells, token count). Analyzers wrap it so the
// engine can recognize over-budget checks with errors.Is and resolve them
// through the failure-mode policy instead of propagating them, keeping
// algorithmic-complexity DoS attempts from pinning a core. Distinct from a
// context deadline: the budget bounds work, not wall time.
var ErrOverBudget = errors.New("analysis budget exceeded")

// Analyzer names used in verdicts and reports.
const (
	AnalyzerNTI     = "NTI"
	AnalyzerPTI     = "PTI"
	AnalyzerProfile = "profile"
	AnalyzerHybrid  = "hybrid"
)

// Marking is one inferred taint annotation over a span of the query. It
// keeps an NTI input's source and name apart, so marking a matched input
// builds no string; Label renders the attribution when one is shown.
type Marking struct {
	Span sqltoken.Span
	// Source and Name identify the origin of the marking. For an NTI
	// marking of one named input they are the input's channel and
	// parameter name ("get", "id"). Otherwise Name is empty and Source is
	// the whole label: the comma-joined "source:name" keys of a value
	// mirrored across inputs, the key of an input with an empty name, or,
	// for PTI, the trusted fragment text.
	Source, Name string
}

// InputMarking returns the marking of span by the input named name from
// channel source: the pair kept apart, or for an empty name (which a
// split pair could not tell from a whole label) the rendered key.
func InputMarking(span sqltoken.Span, source, name string) Marking {
	if name == "" {
		return Marking{Span: span, Source: source + ":"}
	}
	return Marking{Span: span, Source: source, Name: name}
}

// Label renders the marking's origin: "source:name" for one named input,
// Source itself otherwise.
func (m *Marking) Label() string {
	if m.Name == "" {
		return m.Source
	}
	return m.Source + ":" + m.Name
}

// ReasonKind says which evidence a Reason carries, and so how its detail
// renders. The zero kind is fixed text, so a Reason literal with only a
// Detail keeps meaning what it says.
type ReasonKind uint8

// Reason kinds.
const (
	// ReasonFixed carries its explanation verbatim in Detail: PTI's
	// uncovered critical token, fail-closed verdicts, and reasons received
	// over the wire.
	ReasonFixed ReasonKind = iota
	// ReasonNTI is a critical token inside a negatively tainted span:
	// Input names the matching input(s), Distance is the match's edit
	// distance and Width the marked span's length in bytes.
	ReasonNTI
	// ReasonUnseen is a query whose Skeleton the call site Site never
	// issued during training.
	ReasonUnseen
	// ReasonSiteUnknown is a query from a call site Site with no training
	// profile, flagged in strict mode.
	ReasonSiteUnknown
)

// Reason explains why an analyzer flagged a query: a critical token that is
// negatively tainted (NTI) or not positively tainted (PTI), or a query
// shape its call site never issued (profile). It keeps the evidence
// structured and renders text only when asked, so building a verdict
// formats nothing.
type Reason struct {
	Token sqltoken.Token
	Kind  ReasonKind
	// Detail is the explanation of a ReasonFixed reason; other kinds leave
	// it empty and render theirs from the fields below (see DetailText).
	Detail string
	// Input, Distance and Width are a ReasonNTI reason's evidence.
	Input           string
	Distance, Width int
	// Site and Skeleton are a profile reason's evidence.
	Site, Skeleton string
}

// String renders the reason for logs and reports.
func (r Reason) String() string { return string(r.AppendText(nil)) }

// AppendText appends the String form of the reason to dst:
// `<kind> token "<text>" at <start>..<end>: <detail>`.
func (r Reason) AppendText(dst []byte) []byte { return r.AppendTextTo(dst, plainText{}) }

// TextEscaper writes the variable parts of a reason's text for
// AppendTextTo, so an output format (the audit log's JSON strings)
// escapes only those parts while the reason renders in one pass.
// AppendEscaped appends verbatim text: an input label, a skeleton, a
// detail. AppendQuoted appends text as the Go string literal
// strconv.AppendQuote writes: a token text, a call site. Every other byte
// of the text is a fixed segment, a kind name or a decimal number, all of
// them printable ASCII other than '"', '\', '<', '>' and '&', which need
// no escaping in any format Joza writes.
type TextEscaper interface {
	AppendEscaped(dst []byte, s string) []byte
	AppendQuoted(dst []byte, s string) []byte
}

// plainText is the identity TextEscaper: the text as String renders it.
type plainText struct{}

func (plainText) AppendEscaped(dst []byte, s string) []byte { return append(dst, s...) }

func (plainText) AppendQuoted(dst []byte, s string) []byte { return strconv.AppendQuote(dst, s) }

// AppendTextTo is AppendText with the variable parts written through esc.
// It is the one definition of a reason's text. It takes the 136-byte
// Reason by pointer, so an encoder rendering many reasons copies none.
func (r *Reason) AppendTextTo(dst []byte, esc TextEscaper) []byte {
	dst = append(dst, r.Token.Kind.String()...)
	dst = append(dst, " token "...)
	dst = esc.AppendQuoted(dst, r.Token.Text)
	dst = append(dst, " at "...)
	dst = strconv.AppendInt(dst, int64(r.Token.Start), 10)
	dst = append(dst, ".."...)
	dst = strconv.AppendInt(dst, int64(r.Token.End), 10)
	dst = append(dst, ": "...)
	return r.appendDetail(dst, esc)
}

// DetailText returns the reason's explanation without the token prefix:
// Detail for a fixed reason, the rendered evidence for the others. Wire
// replies carry this, never the raw Detail field.
func (r Reason) DetailText() string {
	if r.Kind == ReasonFixed {
		return r.Detail
	}
	return string(r.appendDetail(nil, plainText{}))
}

func (r *Reason) appendDetail(dst []byte, esc TextEscaper) []byte {
	switch r.Kind {
	case ReasonNTI:
		dst = append(dst, "negatively tainted by input "...)
		dst = esc.AppendEscaped(dst, r.Input)
		dst = append(dst, " (distance "...)
		dst = strconv.AppendInt(dst, int64(r.Distance), 10)
		dst = append(dst, " over "...)
		dst = strconv.AppendInt(dst, int64(r.Width), 10)
		return append(dst, " bytes)"...)
	case ReasonUnseen:
		dst = append(dst, "query skeleton never seen from call site "...)
		dst = esc.AppendQuoted(dst, r.Site)
		dst = append(dst, " during training: "...)
		return esc.AppendEscaped(dst, r.Skeleton)
	case ReasonSiteUnknown:
		dst = append(dst, "call site "...)
		dst = esc.AppendQuoted(dst, r.Site)
		return append(dst, " has no training profile (strict mode)"...)
	default:
		return esc.AppendEscaped(dst, r.Detail)
	}
}

// ExactCopy returns a copy of s whose capacity equals its length, or nil
// when s is empty. Analyzers gather evidence in reused scratch and keep
// it at its exact size with one allocation, instead of growing a slice
// one append at a time.
func ExactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Result is the outcome of one analyzer on one query.
type Result struct {
	Analyzer string
	Attack   bool
	Markings []Marking
	Reasons  []Reason
}

// Verdict is the hybrid decision over a query: the query is safe iff every
// enabled analyzer deems it safe. NTI and PTI are the paper's hybrid;
// Profile is the optional third vote (per-call-site query-skeleton
// profiles) and stays the zero Result in pipelines without that stage.
type Verdict struct {
	Query   string
	Attack  bool
	NTI     Result
	PTI     Result
	Profile Result
	// Version is the content-derived version of the analysis snapshot that
	// produced this verdict (empty for unversioned snapshots). Every check
	// runs whole against exactly one snapshot, so the version attributes
	// the verdict to one policy generation even across live reloads.
	Version string `json:"version,omitempty"`
	// Skeleton and ProfileOutcome are the profile stage's evidence: the
	// query's skeleton and how the call site's profile classified it
	// ("learned", "seen", "unseen" or "site-unknown"). Both are empty
	// when the stage did not run.
	Skeleton       string `json:"skeleton,omitempty"`
	ProfileOutcome string `json:"profileOutcome,omitempty"`
	// Trace is the check's finished decision trace, nil when the tracer
	// did not capture it. A wire front door attaches it to its reply.
	Trace *trace.Span `json:"-"`
	// Failed marks a verdict the engine's failure mode resolved: a limit
	// or dialect mismatch refused the check before any stage, or a stage
	// panicked or ran over budget.
	Failed bool `json:"-"`
}

// DetectedBy returns the analyzers that flagged the query.
func (v Verdict) DetectedBy() []string {
	var out []string
	if v.NTI.Attack {
		out = append(out, AnalyzerNTI)
	}
	if v.PTI.Attack {
		out = append(out, AnalyzerPTI)
	}
	if v.Profile.Attack {
		out = append(out, AnalyzerProfile)
	}
	return out
}

// Reasons returns the union of attack reasons from all analyzers.
func (v Verdict) Reasons() []Reason {
	out := make([]Reason, 0, len(v.NTI.Reasons)+len(v.PTI.Reasons)+len(v.Profile.Reasons))
	out = append(out, v.NTI.Reasons...)
	out = append(out, v.PTI.Reasons...)
	out = append(out, v.Profile.Reasons...)
	return out
}

// Policy selects how the application recovers when an attack is detected.
type Policy int

// Recovery policies. PolicyTerminate (the Joza default) aborts the request;
// PolicyErrorVirtualize makes the query appear to have failed, relying on
// application error handling.
const (
	PolicyTerminate Policy = iota + 1
	PolicyErrorVirtualize
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyTerminate:
		return "terminate"
	case PolicyErrorVirtualize:
		return "error-virtualization"
	default:
		return "unknown"
	}
}

// AttackError is returned to callers when a query is blocked.
type AttackError struct {
	Verdict Verdict
	Policy  Policy
}

// Error implements the error interface.
func (e *AttackError) Error() string {
	by := strings.Join(e.Verdict.DetectedBy(), "+")
	if by == "" {
		by = "joza"
	}
	return fmt.Sprintf("sql injection blocked by %s (policy %s)", by, e.Policy)
}

// RenderMarkings produces the paper's figure-style three-line annotation of
// a query: the query itself, a line of '-'/'+' markers under tainted spans,
// and a line of 'c' markers under critical tokens. Negative and positive
// markings are rendered on the same marker line; where both apply, negative
// ('-') wins since it is the alarming one.
func RenderMarkings(query string, neg, pos []Marking, critical []sqltoken.Token) string {
	markers := make([]byte, len(query))
	for i := range markers {
		markers[i] = ' '
	}
	for _, m := range pos {
		for i := m.Span.Start; i < m.Span.End && i < len(markers); i++ {
			markers[i] = '+'
		}
	}
	for _, m := range neg {
		for i := m.Span.Start; i < m.Span.End && i < len(markers); i++ {
			markers[i] = '-'
		}
	}
	crit := make([]byte, len(query))
	for i := range crit {
		crit[i] = ' '
	}
	for _, t := range critical {
		for i := t.Start; i < t.End && i < len(crit); i++ {
			crit[i] = 'c'
		}
	}
	var sb strings.Builder
	sb.WriteString(query)
	sb.WriteByte('\n')
	sb.Write(markers)
	sb.WriteByte('\n')
	sb.Write(crit)
	sb.WriteByte('\n')
	return sb.String()
}
