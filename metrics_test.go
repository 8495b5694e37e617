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

func metricsGuard(t *testing.T, opts ...joza.Option) *joza.Guard {
	t.Helper()
	base := []joza.Option{joza.WithFragments(joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`))}
	g, err := joza.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGuardMetricsCounts(t *testing.T) {
	g := metricsGuard(t)
	benign := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	in := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	for i := 0; i < 3; i++ {
		if check(g, benign, in).Attack {
			t.Fatal("benign flagged")
		}
	}
	attack := "SELECT * FROM records WHERE ID=-1 OR 1=1 LIMIT 5"
	atkIn := []joza.Input{{Source: "get", Name: "id", Value: "-1 OR 1=1"}}
	if !check(g, attack, atkIn).Attack {
		t.Fatal("attack missed")
	}
	snap := g.Metrics()
	if snap.Checks != 4 {
		t.Errorf("checks = %d, want 4", snap.Checks)
	}
	if snap.Attacks != 1 || snap.NTIAttacks != 1 || snap.PTIAttacks != 1 {
		t.Errorf("attacks = %d/%d/%d, want 1/1/1", snap.Attacks, snap.NTIAttacks, snap.PTIAttacks)
	}
	// Second and third benign checks hit the query cache.
	if snap.CacheQueryHits < 2 {
		t.Errorf("cache query hits = %d, want >= 2", snap.CacheQueryHits)
	}
	if len(snap.CacheShards) == 0 || len(snap.CacheStructureShards) == 0 {
		t.Errorf("cache shard stats: %d query-cache shards, %d structure-cache shards", len(snap.CacheShards), len(snap.CacheStructureShards))
	}
	var shardHits uint64
	for _, sh := range snap.CacheShards {
		shardHits += sh.Hits
	}
	if shardHits < snap.CacheQueryHits {
		t.Errorf("shard hits %d < aggregate query hits %d", shardHits, snap.CacheQueryHits)
	}
	if snap.LatencyP50Ns == 0 || snap.LatencyP99Ns == 0 || snap.LatencyP99Ns < snap.LatencyP50Ns {
		t.Errorf("latency quantiles p50=%d p99=%d", snap.LatencyP50Ns, snap.LatencyP99Ns)
	}
}

func TestGuardMetricsJSONRoundTrip(t *testing.T) {
	g := metricsGuard(t)
	check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	data, err := json.Marshal(g.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var back joza.Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Checks != 1 {
		t.Errorf("round-tripped checks = %d", back.Checks)
	}
}

func TestGuardMetricsDisabledAnalyzers(t *testing.T) {
	g, err := joza.New(joza.WithoutPTI())
	if err != nil {
		t.Fatal(err)
	}
	check(g, "SELECT 1", []joza.Input{{Source: "get", Name: "q", Value: "zzz"}})
	snap := g.Metrics()
	if snap.Checks != 1 {
		t.Errorf("checks = %d", snap.Checks)
	}
	if snap.CacheShards != nil {
		t.Error("PTI-less guard must not report cache shards")
	}
}

func TestManagerMetricsSurviveRebuild(t *testing.T) {
	dir := t.TempDir()
	writeApp := func(body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "app.php"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeApp(refreshSrc)
	m, err := joza.NewManager(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	check(m.Guard(), q, nil)
	check(m.Guard(), q, nil)
	writeApp(refreshSrc + "\n" + `$q2 = "SELECT name FROM users WHERE uid=";`)
	if changed, err := m.Refresh(); err != nil || !changed {
		t.Fatalf("refresh = (%v, %v)", changed, err)
	}
	check(m.Guard(), q, nil)
	if got := m.Metrics().Checks; got != 3 {
		t.Errorf("checks after rebuild = %d, want 3 (counters must survive the swap)", got)
	}
}

func TestAuditRecordEmptyArraysNotNull(t *testing.T) {
	// JSON-lines consumers index into detectedBy/reasons; absent values
	// must encode as [] rather than null.
	var buf bytes.Buffer
	g := metricsGuard(t, joza.WithAuditLog(&buf))
	if !check(g, "SELECT * FROM records WHERE ID=-1 OR 1=1 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "-1 OR 1=1"}}).Attack {
		t.Fatal("attack missed")
	}
	line := strings.TrimSpace(buf.String())
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("audit line not JSON: %v", err)
	}
	for _, field := range []string{"detectedBy", "reasons"} {
		v, ok := raw[field]
		if !ok {
			t.Errorf("field %q missing: %s", field, line)
			continue
		}
		if string(v) == "null" {
			t.Errorf("field %q encoded as null", field)
		}
		var arr []string
		if err := json.Unmarshal(v, &arr); err != nil {
			t.Errorf("field %q is not an array: %s", field, v)
		}
	}
}
