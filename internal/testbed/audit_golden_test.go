package testbed

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"joza"
	"joza/internal/webapp"
)

const auditGoldenPath = "testdata/audit_golden.jsonl"

// pinnedTime replaces every audit line's detection time so the golden
// compares bytes, not clocks. The logger writes UTC with millisecond
// precision, so the field always has this width.
const pinnedTime = "2015-06-22T00:00:00.000Z"

// auditLines runs the detection-matrix corpus through the hybrid+profile
// Guard with an audit log and returns the log with every time field
// pinned: one line per blocked case, in sweep order.
func auditLines(t *testing.T) []byte {
	t.Helper()
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	st := &storedState{value: secondOrderBenign}
	store, soPlugin, err := lab.trainProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	g, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store), joza.WithAuditLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	unprotected := lab.buildApp()
	unprotected.Install(soPlugin)
	app := lab.buildApp(webapp.WithChecker(g))
	app.Install(soPlugin)
	err = lab.forEachMatrixCase(unprotected, st, func(_ string, run func(app *webapp.App) (*webapp.Page, error)) error {
		_, err := run(app)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const prefix = `{"time":"`
	lines := bytes.SplitAfter(log.Bytes(), []byte("\n"))
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte(prefix)) || len(line) < len(prefix)+len(pinnedTime) || line[len(prefix)+len(pinnedTime)] != '"' {
			t.Fatalf("audit line %d has no leading time field: %q", i, line)
		}
		copy(line[len(prefix):], pinnedTime)
	}
	return log.Bytes()
}

// TestAuditGolden pins the audit log byte for byte over every attack in
// the detection matrix: the reasons' text (NTI, PTI and profile), the
// JSON string escaping, the field order and the input keys. Every line
// must also decode as a joza.AuditRecord. Regenerate with -update-golden
// only for an intended change to the record.
func TestAuditGolden(t *testing.T) {
	got := auditLines(t)
	if *updateGolden {
		if err := os.WriteFile(auditGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("audit golden rewritten: %s", auditGoldenPath)
	}
	want, err := os.ReadFile(auditGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gotLines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Errorf("audit log has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	for i, line := range wantLines {
		var rec joza.AuditRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("golden line %d does not decode: %v", i+1, err)
		}
		if rec.Query == "" || len(rec.DetectedBy) == 0 || len(rec.Reasons) == 0 || rec.Policy == "" {
			t.Errorf("golden line %d decodes incomplete: %+v", i+1, rec)
		}
	}
}
