package joza_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"joza"
)

func TestAuditLogRecordsBlockedQueries(t *testing.T) {
	var buf bytes.Buffer
	g, err := joza.New(
		joza.WithFragments([]string{"SELECT * FROM records WHERE ID=", " LIMIT 5"}),
		joza.WithAuditLog(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Benign: nothing logged.
	check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "5"}})
	if buf.Len() != 0 {
		t.Fatalf("benign query logged: %s", buf.String())
	}
	// Attack: one JSON line.
	payload := "-1 OR 1=1"
	check(g, "SELECT * FROM records WHERE ID="+payload+" LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: payload}})
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("attack not logged")
	}
	var rec joza.AuditRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("audit line not JSON: %v (%s)", err, line)
	}
	if !strings.Contains(rec.Query, payload) {
		t.Errorf("record query = %q", rec.Query)
	}
	if len(rec.DetectedBy) != 2 {
		t.Errorf("detectedBy = %v", rec.DetectedBy)
	}
	if len(rec.Reasons) == 0 {
		t.Error("no reasons logged")
	}
	if rec.Policy != "terminate" {
		t.Errorf("policy = %q", rec.Policy)
	}
	if len(rec.InputKeys) != 1 || rec.InputKeys[0] != "get:id" {
		t.Errorf("inputKeys = %v", rec.InputKeys)
	}
	// Input values must not appear (only keys).
	if strings.Contains(line, `"value"`) {
		t.Error("audit log leaked input values")
	}
	if rec.Time == "" {
		t.Error("missing timestamp")
	}
}

func TestAuditLogConcurrentLines(t *testing.T) {
	var buf safeBuffer
	g, err := joza.New(
		joza.WithFragments([]string{"SELECT * FROM records WHERE ID="}),
		joza.WithAuditLog(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				check(g, "SELECT * FROM records WHERE ID=1 OR 1=1", nil)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 200 {
		t.Fatalf("lines = %d, want 200", len(lines))
	}
	for _, l := range lines {
		var rec joza.AuditRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v", err)
		}
	}
}

// safeBuffer is a bytes.Buffer whose Write is already serialized by the
// audit logger; the type exists to detect torn writes via JSON validity.
type safeBuffer struct{ bytes.Buffer }

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	appFile := filepath.Join(dir, "app.php")
	if err := os.WriteFile(appFile, []byte(`<?php
$q = 'SELECT id, title FROM posts WHERE id=';`), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := joza.NewManager(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.FileCount() != 1 {
		t.Errorf("files = %d", m.FileCount())
	}
	oldVersion := m.SnapshotVersion()
	if check(m.Guard(), "SELECT id, title FROM posts WHERE id=5", nil).Attack {
		t.Fatal("benign flagged")
	}
	// A query from a not-yet-installed plugin is untrusted.
	pluginQuery := "SELECT id, name FROM gallery WHERE album=2"
	if !check(m.Guard(), pluginQuery, nil).Attack {
		t.Fatal("unknown query should be flagged before plugin install")
	}

	// Install the plugin; Refresh swaps the snapshot.
	if err := os.WriteFile(filepath.Join(dir, "gallery.php"), []byte(`<?php
$q = 'SELECT id, name FROM gallery WHERE album=';`), 0o644); err != nil {
		t.Fatal(err)
	}
	swapped, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("Refresh did not swap")
	}
	if m.SnapshotVersion() == oldVersion {
		t.Error("snapshot not replaced")
	}
	if check(m.Guard(), pluginQuery, nil).Attack {
		t.Error("plugin query still flagged after refresh")
	}
	// No change → no swap.
	swapped, err = m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if swapped {
		t.Error("spurious swap")
	}
	// Attacks are still attacks on the new guard.
	if !check(m.Guard(), "SELECT id, name FROM gallery WHERE album=2 OR 1=1", nil).Attack {
		t.Error("attack missed after refresh")
	}
}

func TestManagerErrors(t *testing.T) {
	if _, err := joza.NewManager(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Error("missing dir must error")
	}
	// A directory with no SQL-bearing fragments cannot build a PTI guard.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "a.php"), []byte(`<?php $x = 'plain words';`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := joza.NewManager(empty, nil); err == nil {
		t.Error("fragment-less dir must error")
	}
	// NTI-only manager over the same dir is fine.
	if _, err := joza.NewManager(empty, nil, joza.WithoutPTI()); err != nil {
		t.Errorf("NTI-only manager: %v", err)
	}
}

func TestManagerCustomExtensions(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.inc"), []byte(`<?php
$q = 'SELECT x FROM t WHERE id=';`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := joza.NewManager(dir, []string{".inc"})
	if err != nil {
		t.Fatal(err)
	}
	if check(m.Guard(), "SELECT x FROM t WHERE id=1", nil).Attack {
		t.Error("benign flagged with custom extension")
	}
}
