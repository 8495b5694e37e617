package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSmall(t *testing.T) {
	if err := run([]string{"-table", "6", "-requests", "10", "-urls", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-figure", "8", "-requests", "10", "-urls", "20"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBadFlags refuses unknown flags, including the performance modes
// that moved into go test -bench families, and stray arguments.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-nti"},
		{"-lex"},
		{"-transport"},
		{"-pool", "2"},
		{"-metrics"},
		{"-scale"},
		{"-rtt", "0"},
		{"-diff", "old.json", "new.json"},
		{"-table", "6", "extra"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
}

// TestJSONReport runs one table and one figure with -json and checks the
// report file carries exactly the sections that ran, with the run
// parameters.
func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-table", "6", "-figure", "8",
		"-requests", "10", "-urls", "20", "-seed", "7", "-json", path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if report.GoVersion == "" || report.GeneratedAt == "" || report.NumCPU <= 0 {
		t.Fatalf("missing run metadata: %+v", report)
	}
	if report.URLs != 20 || report.Requests != 10 || report.Seed != 7 {
		t.Fatalf("run parameters not recorded: %+v", report)
	}
	if len(report.Table6) == 0 || len(report.Figure8) == 0 {
		t.Fatal("table6 or figure8 section missing")
	}
	if report.Table5 != nil || len(report.Figure7) != 0 {
		t.Fatal("sections that did not run must be omitted")
	}
	// Only the run metadata and the two sections that ran, by key.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"generatedAt", "goVersion", "numCpu", "urls", "requests", "seed", "table6", "figure8"}
	if len(keys) != len(want) {
		t.Fatalf("report keys = %d, want %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
}
