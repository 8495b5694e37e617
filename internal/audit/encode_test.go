package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/sqltoken"
)

// referenceLine is the audit line as encoding/json writes the Record,
// with every reason rendered through fmt: the oracle the append-only
// encoder must reproduce byte for byte.
func referenceLine(now time.Time, v *core.Verdict, policy core.Policy, inputs []nti.Input) []byte {
	rec := Record{
		Time:       now.UTC().Format(timeLayout),
		Query:      v.Query,
		DetectedBy: v.DetectedBy(),
		Reasons:    []string{},
		Policy:     policy.String(),
	}
	if rec.DetectedBy == nil {
		rec.DetectedBy = []string{}
	}
	for _, r := range v.Reasons() {
		detail := r.Detail
		switch r.Kind {
		case core.ReasonNTI:
			detail = fmt.Sprintf("negatively tainted by input %s (distance %d over %d bytes)", r.Input, r.Distance, r.Width)
		case core.ReasonUnseen:
			detail = fmt.Sprintf("query skeleton never seen from call site %q during training: %s", r.Site, r.Skeleton)
		case core.ReasonSiteUnknown:
			detail = fmt.Sprintf("call site %q has no training profile (strict mode)", r.Site)
		}
		rec.Reasons = append(rec.Reasons, fmt.Sprintf("%s token %q at %d..%d: %s",
			r.Token.Kind, r.Token.Text, r.Token.Start, r.Token.End, detail))
	}
	for _, in := range inputs {
		rec.InputKeys = append(rec.InputKeys, in.Key())
	}
	data, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// attackVerdict builds a verdict carrying every reason kind, with the
// given bytes in each free-text slot.
func attackVerdict(query, tokText, detail, source, name string) *core.Verdict {
	tok := sqltoken.Token{Kind: sqltoken.KindKeyword, Text: tokText, Start: 3, End: 3 + len(tokText)}
	label := source + ":" + name
	return &core.Verdict{
		Query:  query,
		Attack: true,
		NTI: core.Result{Analyzer: core.AnalyzerNTI, Attack: true, Reasons: []core.Reason{
			{Token: tok, Kind: core.ReasonNTI, Input: label + "," + label, Distance: 2, Width: len(query)},
		}},
		PTI: core.Result{Analyzer: core.AnalyzerPTI, Attack: detail != "", Reasons: []core.Reason{
			{Token: tok, Detail: detail},
		}},
		Profile: core.Result{Analyzer: core.AnalyzerProfile, Attack: true, Reasons: []core.Reason{
			{Kind: core.ReasonUnseen, Site: name, Skeleton: query},
			{Kind: core.ReasonSiteUnknown, Site: source},
		}},
	}
}

// manyReasonsVerdict builds a verdict with several reasons of every kind.
// Token texts are tokText behind 0 to 9 safe bytes and repeated, so each
// of its bytes lands on every offset of appendEscaped's 8-byte scan; PTI
// reasons repeat one detail, as PTI's own do.
func manyReasonsVerdict(query, tokText, detail, source, name string) *core.Verdict {
	v := &core.Verdict{Query: query, Attack: true,
		NTI:     core.Result{Analyzer: core.AnalyzerNTI, Attack: true},
		PTI:     core.Result{Analyzer: core.AnalyzerPTI, Attack: true},
		Profile: core.Result{Analyzer: core.AnalyzerProfile, Attack: true},
	}
	for i := 0; i < 10; i++ {
		text := strings.Repeat("SELECT *"[:i%9]+tokText, 1+i%3)
		tok := sqltoken.Token{Kind: sqltoken.Kind(i), Text: text, Start: i, End: i + len(text)}
		v.NTI.Reasons = append(v.NTI.Reasons, core.Reason{Token: tok, Kind: core.ReasonNTI, Input: source + ":" + name, Distance: i, Width: len(text)})
		v.PTI.Reasons = append(v.PTI.Reasons, core.Reason{Token: tok, Detail: detail})
		if i%5 == 0 {
			v.Profile.Reasons = append(v.Profile.Reasons,
				core.Reason{Token: tok, Kind: core.ReasonUnseen, Site: text, Skeleton: query},
				core.Reason{Token: tok, Kind: core.ReasonSiteUnknown, Site: name + text})
		}
	}
	return v
}

var fixedNow = time.Date(2015, 6, 22, 1, 2, 3, 456789000, time.FixedZone("CEST", 2*3600))

func encodeLine(v *core.Verdict, policy core.Policy, inputs []nti.Input) []byte {
	var b lineBuf
	b.appendRecord(fixedNow, v, policy, inputs)
	return b.line
}

// FuzzAuditLine compares the append-only encoder with encoding/json over
// arbitrary query, token-text, detail, source and name bytes.
func FuzzAuditLine(f *testing.F) {
	f.Add("SELECT * FROM t WHERE id=1 OR 1=1", "OR", "critical token not contained in any trusted fragment", "get", "id")
	f.Add("<script>&amp;</script>", "\u2028\u2029", "\b\f\n\r\t\x00\x1f\x7f", "cookie", "a,b")
	f.Add("\xff\xfe\xe2\x80", "\xe2\x80\xa8x", "é\xc3", "hea\xe2\x80:der", "\xa8n\"\\")
	f.Add("", "", "", "", "")
	f.Add("UNION SELECT\x7f", "a\x7fb", "critical token not contained in any trusted fragment", "post", "q")
	f.Add(`x\"y`, `OR"1"\'`, `\\"<>&`, "get", "id")
	f.Add("SELECT\u2028", "12345678<>&\u2028", "\xffdetail\xe2\x80\xa8", "get\x7f", "\xc3")
	f.Add("0123456789abcdef", "01234567\xc3\x28", "abcdefgh\x01", "a", "b")
	f.Fuzz(func(t *testing.T, query, tokText, detail, source, name string) {
		inputs := []nti.Input{{Source: source, Name: name, Value: query}, {Source: name, Name: source}}
		for _, v := range []*core.Verdict{
			attackVerdict(query, tokText, detail, source, name),
			manyReasonsVerdict(query, tokText, detail, source, name),
		} {
			for _, in := range [][]nti.Input{nil, inputs} {
				want := referenceLine(fixedNow, v, core.PolicyErrorVirtualize, in)
				if got := encodeLine(v, core.PolicyErrorVirtualize, in); !bytes.Equal(got, want) {
					t.Fatalf("encoder and encoding/json disagree\n got: %q\nwant: %q", got, want)
				}
			}
		}
	})
}

// TestAuditLineMatchesEncodingJSON runs the fuzz seeds plus every single
// byte and a few runes at each free-text position, so the escape table is
// pinned without running the fuzzer; in the multi-reason verdicts each
// byte also lands on every offset of the 8-byte scan.
func TestAuditLineMatchesEncodingJSON(t *testing.T) {
	var texts []string
	for c := 0; c < 256; c++ {
		texts = append(texts, "a"+string(rune(c))+"b", "a"+string([]byte{byte(c)})+"b")
	}
	texts = append(texts, "\u2028", "\u2029", "\u2027\u202a", "\U0001F600", "\xf0\x9f\x98", "\xed\xa0\x80")
	for _, s := range texts {
		for _, v := range []*core.Verdict{
			attackVerdict(s, "x", "d", "get", "id"),
			attackVerdict("q", s, "d", "get", "id"),
			attackVerdict("q", "x", s, "get", "id"),
			attackVerdict("q", "x", "d", s, "id"),
			attackVerdict("q", "x", "d", "get", s),
			manyReasonsVerdict("q", s, "critical token not contained in any trusted fragment", "get", "id"),
			manyReasonsVerdict(s, "x", s, s, s),
		} {
			inputs := []nti.Input{{Source: v.Profile.Reasons[1].Site, Name: v.Profile.Reasons[0].Site}}
			want := referenceLine(fixedNow, v, core.PolicyTerminate, inputs)
			if got := encodeLine(v, core.PolicyTerminate, inputs); !bytes.Equal(got, want) {
				t.Fatalf("text %q: encoder and encoding/json disagree\n got: %q\nwant: %q", s, got, want)
			}
		}
	}
	// A verdict with no analyzer evidence still writes [] for both lists.
	empty := &core.Verdict{Query: "SELECT 1", Attack: true}
	if got, want := encodeLine(empty, core.PolicyTerminate, nil), referenceLine(fixedNow, empty, core.PolicyTerminate, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty verdict\n got: %q\nwant: %q", got, want)
	}
}

// TestAppendTimeMatchesAppendFormat compares the fixed-width timestamp
// with time.AppendFormat for every year 0–9999 in several zones, at
// instants whose UTC date or clock differs from the local one, and for
// years outside that range, which fall back to AppendFormat.
func TestAppendTimeMatchesAppendFormat(t *testing.T) {
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("CEST", 2*3600),
		time.FixedZone("west", -11*3600-30*60),
		time.FixedZone("east", 14*3600),
	}
	check := func(tm time.Time) {
		t.Helper()
		want := tm.UTC().AppendFormat([]byte("x"), timeLayout)
		if got := appendTime([]byte("x"), tm); !bytes.Equal(got, want) {
			t.Fatalf("%v: appendTime = %q, want %q", tm, got, want)
		}
	}
	for year := 0; year <= 9999; year++ {
		zone := zones[year%len(zones)]
		check(time.Date(year, time.Month(1+year%12), 1+year%28, year%24, year%60, year%60, (year*7919)%1e9, zone))
		check(time.Date(year, time.December, 31, 23, 59, 59, 999999999, zone))
		check(time.Date(year, time.January, 1, 0, 0, 0, 999000, zone))
	}
	for _, year := range []int{-1, -10000, 10000, 292277026} {
		for _, zone := range zones {
			check(time.Date(year, time.June, 15, 12, 30, 45, 123456789, zone))
		}
	}
	check(time.Time{})
	check(time.Unix(0, 0))
}

// slowWriter collects lines, pausing on each write so an async logger's
// queue fills with buffers still waiting to be written.
type slowWriter struct {
	mu    sync.Mutex
	lines []string
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	w.mu.Lock()
	w.lines = append(w.lines, string(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestAsyncLinesNeverAliasPooledBuffers queues many distinct attack
// records behind a slow sink: each line must arrive intact and distinct,
// so no queued line shares a buffer a later Log reused.
func TestAsyncLinesNeverAliasPooledBuffers(t *testing.T) {
	const n = 300
	w := &slowWriter{}
	l := NewAsyncLogger(w, n)
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		// Vary the length so a reused buffer would show torn lines too.
		l.Log(attackVerdict("SELECT * FROM t WHERE id="+id+strings.Repeat(" ", i%17), "OR", "d"+id, "get", "id"+id), core.PolicyTerminate, nil)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d records with room for all of them", l.Dropped())
	}
	if len(w.lines) != n {
		t.Fatalf("sink received %d lines, want %d", len(w.lines), n)
	}
	seen := map[string]bool{}
	for i, line := range w.lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || !strings.HasSuffix(line, "}\n") {
			t.Fatalf("line %d is torn (%v): %q", i, err, line)
		}
		id := strings.TrimSpace(strings.TrimPrefix(rec.Query, "SELECT * FROM t WHERE id="))
		if !strings.Contains(line, `: d`+id+`"`) || !strings.Contains(line, `call site \"id`+id+`\"`) {
			t.Fatalf("line %d mixes records: %q", i, line)
		}
		if seen[id] {
			t.Fatalf("record %s arrived twice", id)
		}
		seen[id] = true
	}
}

// TestSyncAndAsyncWriteIdenticalBytes logs the same attacks through both
// logger modes under one clock; the sinks must hold the same bytes.
func TestSyncAndAsyncWriteIdenticalBytes(t *testing.T) {
	var syncBuf, asyncBuf bytes.Buffer
	sl := NewLogger(&syncBuf)
	al := NewAsyncLogger(&asyncBuf, 64)
	for _, l := range []*Logger{sl, al} {
		l.now = func() time.Time { return fixedNow }
	}
	inputs := []nti.Input{{Source: "get", Name: "id", Value: "1 OR 1=1"}, {Source: "cookie", Name: "<s>", Value: ""}}
	for i := 0; i < 20; i++ {
		v := attackVerdict(fmt.Sprintf("SELECT %d <&> \u2028", i), "OR", "\xff", "get", "id")
		sl.Log(v, core.PolicyTerminate, inputs)
		al.Log(v, core.PolicyTerminate, inputs)
	}
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(syncBuf.Bytes(), asyncBuf.Bytes()) {
		t.Fatalf("sync and async loggers wrote different bytes\nsync:  %q\nasync: %q", syncBuf.Bytes(), asyncBuf.Bytes())
	}
	if strings.Count(syncBuf.String(), "\n") != 20 {
		t.Fatalf("wrote %d lines, want 20", strings.Count(syncBuf.String(), "\n"))
	}
}

// TestLogAllocatesNothingWhenWarm: with its buffer pooled, an attack
// record is encoded and written without allocating.
func TestLogAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	l := NewLogger(io.Discard)
	v := attackVerdict("SELECT * FROM t WHERE id=1 OR 1=1 <&>", "OR", "critical token not contained in any trusted fragment", "get", "id")
	inputs := []nti.Input{{Source: "get", Name: "id", Value: "1 OR 1=1"}}
	l.Log(v, core.PolicyTerminate, inputs)
	if n := testing.AllocsPerRun(200, func() { l.Log(v, core.PolicyTerminate, inputs) }); n != 0 {
		t.Fatalf("warm Log allocates %.1f times per attack, want 0", n)
	}
}

// TestSafeWordMatchesTable checks the word-at-a-time scan against the
// byte table for every byte in every lane of a safe word, and for every
// pair of bytes in every pair of lanes, where a borrow out of one lane
// could hide or invent the other.
func TestSafeWordMatchesTable(t *testing.T) {
	const base = "abcdefgh"
	word := func(s []byte) uint64 { return load64(s, 0) }
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			s := []byte(base)
			s[lane] = byte(c)
			if got := safeWord(word(s)); got != safe[c] {
				t.Fatalf("byte %#x in lane %d: safeWord = %v, want %v", c, lane, got, safe[c])
			}
		}
	}
	for lo := 0; lo < 8; lo++ {
		for hi := lo + 1; hi < 8; hi++ {
			for c := 0; c < 256; c++ {
				for d := 0; d < 256; d++ {
					s := []byte(base)
					s[lo], s[hi] = byte(c), byte(d)
					if got, want := safeWord(word(s)), safe[c] && safe[d]; got != want {
						t.Fatalf("bytes %#x, %#x in lanes %d, %d: safeWord = %v, want %v", c, d, lo, hi, got, want)
					}
				}
			}
		}
	}
}
