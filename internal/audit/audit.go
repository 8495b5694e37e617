// Package audit writes the JSON-lines attack log shared by the
// in-process Guard and the remote-deployment HybridClient: one line per
// blocked query, capturing what an operator needs to triage the event
// without replaying it.
package audit

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
)

// Record is one JSON line written to the audit log when a query is
// blocked.
type Record struct {
	// Time is the detection time in RFC 3339 with millisecond precision.
	Time string `json:"time"`
	// Query is the blocked statement.
	Query string `json:"query"`
	// DetectedBy lists the analyzers that fired ("NTI", "PTI",
	// "profile"), in that order.
	DetectedBy []string `json:"detectedBy"`
	// Reasons are human-readable explanations (token + why).
	Reasons []string `json:"reasons"`
	// Policy is the recovery policy applied.
	Policy string `json:"policy"`
	// InputKeys names the request inputs present at detection time
	// ("source:name"); values are deliberately not logged — they may
	// contain user PII beyond the attack payload.
	InputKeys []string `json:"inputKeys,omitempty"`
}

// Logger writes audit records to a writer. The policy is log-only-attacks:
// Log returns before building (or allocating) anything when the verdict is
// clean, so a Logger on the hot path costs one branch per benign check.
// An attack's line is appended straight from the verdict into a pooled
// buffer; its bytes are exactly what encoding/json writes for the Record.
//
// A Logger from NewLogger writes synchronously under a mutex. A Logger
// from NewAsyncLogger hands the encoded line to a background writer
// through a bounded queue: a slow or wedged sink never stalls a check —
// lines that cannot be queued are dropped and counted instead.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time

	// Async mode (nil queue = synchronous). A queued buffer belongs to
	// the writer until it is written, then goes back to the pool.
	queue    chan *lineBuf
	done     chan struct{}
	finished chan struct{}
	closed   atomic.Bool
	once     sync.Once
	dropped  atomic.Uint64
}

// lineBuf holds one audit line while it is built and written. It is the
// core.TextEscaper reasons render through, straight into the line; scratch
// holds a quoted text that needs escaping after strconv.
type lineBuf struct {
	line, scratch []byte
}

var linePool = sync.Pool{New: func() any { return new(lineBuf) }}

// maxPooledLine bounds the buffers kept for reuse, so one huge blocked
// query does not pin its line's memory in the pool.
const maxPooledLine = 64 << 10

func putLine(b *lineBuf) {
	if cap(b.line) > maxPooledLine || cap(b.scratch) > maxPooledLine {
		return
	}
	linePool.Put(b)
}

// NewLogger returns a Logger writing one JSON line per record to w.
// Writes are serialized; w need not be safe for concurrent use.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w, now: time.Now}
}

// DefaultQueueDepth is the async queue capacity used when NewAsyncLogger
// is given a non-positive depth.
const DefaultQueueDepth = 1024

// NewAsyncLogger returns a Logger whose sink writes happen on a
// background goroutine behind a bounded queue of the given depth
// (DefaultQueueDepth when depth <= 0). Log never blocks: when the queue
// is full — a wedged or slow sink — the record is dropped and counted in
// Dropped. Close stops intake, flushes the queue and waits for the
// writer; call it on shutdown so buffered records reach the sink.
func NewAsyncLogger(w io.Writer, depth int) *Logger {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	l := &Logger{
		w:        w,
		now:      time.Now,
		queue:    make(chan *lineBuf, depth),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	go l.run()
	return l
}

// run is the async writer loop: it drains the queue until Close, then
// flushes whatever is still buffered.
func (l *Logger) run() {
	defer close(l.finished)
	for {
		select {
		case b := <-l.queue:
			l.write(b)
		case <-l.done:
			for {
				select {
				case b := <-l.queue:
					l.write(b)
				default:
					return
				}
			}
		}
	}
}

// write hands b's line to the sink and b back to the pool.
func (l *Logger) write(b *lineBuf) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(b.line)
	putLine(b)
}

// Log writes one record for an attack verdict; clean verdicts return
// immediately without building a record. Synchronous loggers attempt the
// write exactly once and swallow failures (auditing must never take the
// application down); async loggers enqueue without blocking and count
// records the full queue forced them to drop.
func (l *Logger) Log(v *core.Verdict, policy core.Policy, inputs []nti.Input) {
	if !v.Attack {
		return
	}
	if l.queue != nil && l.closed.Load() {
		l.dropped.Add(1)
		return
	}
	b := linePool.Get().(*lineBuf)
	b.appendRecord(l.now(), v, policy, inputs)
	if l.queue == nil {
		l.write(b)
		return
	}
	select {
	case l.queue <- b:
	default:
		l.dropped.Add(1)
		putLine(b)
	}
}

// appendRecord encodes the Record of an attack verdict into b.line, as
// encoding/json would with the Record's field order and tags, plus the
// trailing newline. detectedBy and reasons are written straight from the
// verdict's analyzer results, and are [] (never null) when empty.
func (b *lineBuf) appendRecord(now time.Time, v *core.Verdict, policy core.Policy, inputs []nti.Input) {
	dst := append(b.line[:0], `{"time":"`...)
	dst = appendTime(dst, now)
	dst = append(dst, `","query":`...)
	dst = appendString(dst, v.Query)
	results := [...]struct {
		name string
		res  *core.Result
	}{{core.AnalyzerNTI, &v.NTI}, {core.AnalyzerPTI, &v.PTI}, {core.AnalyzerProfile, &v.Profile}}
	dst = append(dst, `,"detectedBy":[`...)
	for _, r := range results {
		if r.res.Attack {
			dst = appendString(listSep(dst), r.name)
		}
	}
	dst = append(dst, `],"reasons":[`...)
	for _, r := range results {
		for i := range r.res.Reasons {
			dst = append(listSep(dst), '"')
			dst = r.res.Reasons[i].AppendTextTo(dst, b)
			dst = append(dst, '"')
		}
	}
	dst = append(dst, `],"policy":`...)
	dst = appendString(dst, policy.String())
	if len(inputs) > 0 {
		dst = append(dst, `,"inputKeys":[`...)
		for _, in := range inputs {
			// A key is "source:name"; escaping the halves around the ASCII
			// colon equals escaping the joined key.
			dst = append(listSep(dst), '"')
			dst = appendEscaped(dst, in.Source)
			dst = append(dst, ':')
			dst = appendEscaped(dst, in.Name)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	b.line = append(dst, "}\n"...)
}

// AppendEscaped appends s JSON-escaped.
func (b *lineBuf) AppendEscaped(dst []byte, s string) []byte { return appendEscaped(dst, s) }

// AppendQuoted appends strconv.Quote(s), JSON-escaped, without a strconv
// call when s is printable ASCII: text that neither changes (all but '"',
// '\\', '<', '>', '&' and DEL) is copied through, and only '"', '\\'
// (backslash-escaped twice) and '<', '>', '&' (as \u00XX) are rewritten.
// Any other byte sends s through strconv and appendEscaped.
func (b *lineBuf) AppendQuoted(dst []byte, s string) []byte {
	mark := len(dst)
	dst = append(dst, '\\', '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if safe[c] && c != 0x7f { // strconv.Quote writes DEL as \x7f
			continue
		}
		if c < ' ' || c > '~' {
			b.scratch = strconv.AppendQuote(b.scratch[:0], s)
			return appendEscaped(dst[:mark], b.scratch)
		}
		dst = append(dst, s[start:i]...)
		if c == '"' || c == '\\' {
			dst = append(dst, '\\', '\\', '\\', c)
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '\\', '"')
}

// appendTime appends t in UTC in timeLayout, writing the fixed-width
// digits directly for the years time.AppendFormat writes in four digits.
func appendTime(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, timeLayout)
	}
	hour, minute, sec := t.Clock()
	dst = appendDigits(dst, year, 4)
	dst = appendDigits(append(dst, '-'), int(month), 2)
	dst = appendDigits(append(dst, '-'), day, 2)
	dst = appendDigits(append(dst, 'T'), hour, 2)
	dst = appendDigits(append(dst, ':'), minute, 2)
	dst = appendDigits(append(dst, ':'), sec, 2)
	dst = appendDigits(append(dst, '.'), t.Nanosecond()/1e6, 3)
	return append(dst, 'Z')
}

// appendDigits appends n, 0 <= n < 10^width, as width decimal digits,
// zero-padded.
func appendDigits(dst []byte, n, width int) []byte {
	dst = append(dst, "0000"[:width]...)
	for i := len(dst) - 1; n > 0; i-- {
		dst[i] += byte(n % 10)
		n /= 10
	}
	return dst
}

// listSep appends the comma before a JSON array element, unless dst ends
// at the array's opening bracket.
func listSep(dst []byte) []byte {
	if dst[len(dst)-1] == '[' {
		return dst
	}
	return append(dst, ',')
}

// timeLayout is the Record's Time format: RFC 3339, millisecond precision.
const timeLayout = "2006-01-02T15:04:05.000Z07:00"

// Dropped returns how many records the async queue discarded because the
// sink could not keep up. Always zero for synchronous loggers.
func (l *Logger) Dropped() uint64 { return l.dropped.Load() }

// Close stops async intake, flushes buffered records to the sink and
// waits for the background writer to finish. Records logged after Close
// are dropped (and counted). On a synchronous Logger it is a no-op. Safe
// to call more than once.
func (l *Logger) Close() error {
	if l.queue == nil {
		return nil
	}
	l.once.Do(func() {
		l.closed.Store(true)
		close(l.done)
	})
	<-l.finished
	return nil
}
