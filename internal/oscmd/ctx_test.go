package oscmd

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestCheckContextPreCanceled(t *testing.T) {
	g := appGuard()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.Check(ctx, "nslookup example.com", inputsOf("example.com"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckContextMatchesCheck: a live deadline bounds the check without
// changing its verdict.
func TestCheckContextMatchesCheck(t *testing.T) {
	g := appGuard()
	payload := "example.com; cat /etc/passwd"
	cmd := "nslookup -timeout=2 " + payload
	want := check(t, g, cmd, inputsOf(payload))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := g.Check(ctx, cmd, inputsOf(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attack != want.Attack || got.NTI.Attack != want.NTI.Attack || got.PTI.Attack != want.PTI.Attack {
		t.Errorf("ctx verdict = %+v, plain = %+v", got, want)
	}
}

func TestCheckContextCanceledMidNTI(t *testing.T) {
	// A command long enough for the matcher to reach its polling
	// checkpoint: cancellation surfaces from inside the NTI stage.
	g := appGuard()
	payload := strings.Repeat("abcdefgh", 100)
	cmd := "nslookup -timeout=2 " + payload
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.Check(ctx, cmd, inputsOf("zzz"+payload[:50]))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
