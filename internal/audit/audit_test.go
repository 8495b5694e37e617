package audit

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
)

// TestEmptySlicesMarshalAsArrays pins the wire shape for the degenerate
// record: even with no analyzer details at all, detectedBy and reasons
// must encode as [] — never null — so JSON-lines consumers can index into
// them unconditionally.
func TestEmptySlicesMarshalAsArrays(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Log(&core.Verdict{Query: "SELECT 1", Attack: true}, core.PolicyTerminate, nil)
	line := strings.TrimSpace(buf.String())
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("audit line not JSON: %v (%s)", err, line)
	}
	for _, field := range []string{"detectedBy", "reasons"} {
		v, ok := raw[field]
		if !ok {
			t.Fatalf("field %q missing: %s", field, line)
		}
		if got := strings.TrimSpace(string(v)); got != "[]" {
			t.Errorf("field %q = %s, want []", field, got)
		}
	}
}

// TestCleanVerdictShortCircuits pins the log-only-attacks contract: a
// clean verdict writes nothing and allocates nothing observable.
func TestCleanVerdictShortCircuits(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Log(&core.Verdict{Query: "SELECT 1"}, core.PolicyTerminate,
		[]nti.Input{{Source: "get", Name: "id", Value: "1"}})
	if buf.Len() != 0 {
		t.Fatalf("clean verdict produced audit output: %q", buf.String())
	}
	if n := testing.AllocsPerRun(100, func() {
		l.Log(&core.Verdict{Query: "SELECT 1"}, core.PolicyTerminate, nil)
	}); n != 0 {
		t.Fatalf("clean verdict allocates %v times per Log", n)
	}
}

func TestAsyncLoggerFlushOnClose(t *testing.T) {
	var buf bytes.Buffer
	l := NewAsyncLogger(&buf, 64)
	for i := 0; i < 10; i++ {
		l.Log(&core.Verdict{Query: "SELECT 1", Attack: true}, core.PolicyTerminate, nil)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("flushed %d lines, want 10", len(lines))
	}
	if l.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", l.Dropped())
	}
	// Logging after Close drops and counts rather than blocking or writing.
	l.Log(&core.Verdict{Query: "SELECT 1", Attack: true}, core.PolicyTerminate, nil)
	if l.Dropped() != 1 {
		t.Fatalf("post-Close Dropped = %d, want 1", l.Dropped())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// blockingWriter wedges on the first Write until released.
type blockingWriter struct {
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

func TestAsyncLoggerWedgedSinkDropsInsteadOfBlocking(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	l := NewAsyncLogger(w, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Queue depth 2 plus one record stuck in the writer; everything
		// beyond that must drop without stalling this goroutine.
		for i := 0; i < 20; i++ {
			l.Log(&core.Verdict{Query: "SELECT 1", Attack: true}, core.PolicyTerminate, nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Log blocked on a wedged sink")
	}
	if l.Dropped() == 0 {
		t.Fatal("wedged sink dropped nothing — queue cannot have absorbed 20 records")
	}
	close(w.release)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAsyncLoggerConcurrent(t *testing.T) {
	l := NewAsyncLogger(io.Discard, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Log(&core.Verdict{Query: "SELECT 1", Attack: true}, core.PolicyTerminate, nil)
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
