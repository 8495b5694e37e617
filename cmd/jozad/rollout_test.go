package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"joza/internal/daemon"
	"joza/internal/profile"
	"joza/internal/sqltoken"
)

// bootInProcess runs jozad inside the test process and returns both bound
// addresses plus the run-result channel. Only one in-process daemon can be
// up at a time (they share the process's signal handling).
func bootInProcess(t *testing.T, args ...string) (daemonAddr, obsAddr string, runErr chan error) {
	t.Helper()
	ready := make(chan [2]string, 1)
	testReady = func(d, o string) { ready <- [2]string{d, o} }
	t.Cleanup(func() { testReady = nil })
	runErr = make(chan error, 1)
	go func() { runErr <- run(args) }()
	select {
	case addrs := <-ready:
		return addrs[0], addrs[1], runErr
	case err := <-runErr:
		t.Fatalf("jozad did not come up: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("jozad did not come up")
	}
	return "", "", nil
}

func sigtermAndWait(t *testing.T, runErr chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("jozad did not drain")
	}
}

func daemonVersion(t *testing.T, addr string) string {
	t.Helper()
	c := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.SnapshotVersion
}

func pollVersion(t *testing.T, addr, not string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v := daemonVersion(t, addr); v != not {
			return v
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon version never moved off %q", not)
	return ""
}

// TestUnifiedWatchKeepsGenerationsWhole: with -watch, a fragment change
// and a profile-store change each produce one whole new generation — the
// served snapshot version stays non-empty across every reload. The old
// split tickers swapped analyzer and profiles independently through the
// partial setters, which reset the version to unversioned; a non-empty
// post-reload version is exactly what they could not produce.
func TestUnifiedWatchKeepsGenerationsWhole(t *testing.T) {
	dir := t.TempDir()
	appFile := filepath.Join(dir, "app.php")
	if err := os.WriteFile(appFile, []byte(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := profile.NewRecorderDialect(sqltoken.MySQL)
	rec.Record("app.php:2", "SELECT * FROM records WHERE ID=5 LIMIT 5")
	profPath := filepath.Join(t.TempDir(), "profiles.json")
	if err := os.WriteFile(profPath, rec.Store().Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, _, runErr := bootInProcess(t,
		"-src", dir, "-addr", "127.0.0.1:0", "-watch", "25ms",
		"-profiles", profPath, "-drain", "5s")

	v1 := daemonVersion(t, addr)
	if v1 == "" {
		t.Fatal("freshly booted daemon serves an unversioned snapshot")
	}

	// Profile-only change: one new generation, still versioned.
	rec.Record("app.php:9", "DELETE FROM sessions WHERE sid=5")
	if err := os.WriteFile(profPath, rec.Store().Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	v2 := pollVersion(t, addr, v1)
	if v2 == "" {
		t.Fatal("profile reload produced an unversioned generation (partial swap)")
	}

	// Fragment-only change: again one whole generation.
	if err := os.WriteFile(appFile, []byte(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";
$q2 = "SELECT name FROM users WHERE uid=$uid";`), 0o644); err != nil {
		t.Fatal(err)
	}
	v3 := pollVersion(t, addr, v2)
	if v3 == "" {
		t.Fatal("fragment reload produced an unversioned generation (partial swap)")
	}
	if v3 == v1 {
		t.Fatal("fragment change did not change the content-derived version")
	}
	// The reloaded fragments really serve.
	c := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
	defer c.Close()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT name FROM users WHERE uid=7")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Fatal("query from the reloaded corpus still flagged")
	}
	if reply.Version != v3 {
		t.Fatalf("reply version %q, want the reloaded generation %q", reply.Version, v3)
	}
	sigtermAndWait(t, runErr)
}

// TestReadyzFlipsBeforeDrainStopsAccepting: on SIGTERM, /readyz turns 503
// while -ready-grace holds the listener open, so a load balancer watching
// readiness re-routes before connections start failing. The daemon must
// still accept and answer during the grace window.
func TestReadyzFlipsBeforeDrainStopsAccepting(t *testing.T) {
	addr, obsAddr, runErr := bootInProcess(t,
		"-selftest", "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0",
		"-ready-grace", "1500ms", "-drain", "5s")

	readyz := func() int {
		resp, err := http.Get("http://" + obsAddr + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz while serving = %d", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Readiness flips first...
	flipped := false
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		if readyz() == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never flipped to 503 after SIGTERM")
	}
	// ...while the daemon still accepts brand-new connections.
	c := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=5 LIMIT 5"); err != nil {
		t.Fatalf("analyze during ready-grace: %v", err)
	}
	_ = c.Close()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run = %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestLearnCheckpointPersistsPeriodically: with -checkpoint, learning mode
// persists the accumulating store while the daemon runs — a later crash
// loses at most one interval — via the atomic temp-and-rename write (no
// torn files, no temp litter), and the graceful-drain write still lands
// everything.
func TestLearnCheckpointPersistsPeriodically(t *testing.T) {
	learnDir := t.TempDir()
	learnPath := filepath.Join(learnDir, "learned.json")
	addr, _, runErr := bootInProcess(t,
		"-selftest", "-addr", "127.0.0.1:0",
		"-learn", learnPath, "-checkpoint", "50ms", "-drain", "5s")

	c := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.AnalyzeSiteContext(ctx, "app.php:2", "SELECT * FROM records WHERE ID=5 LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	// The checkpoint loop must land a loadable store without any shutdown.
	var sites int
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if st, err := profile.Load(learnPath); err == nil && st.Sites() >= 1 {
			sites = st.Sites()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sites == 0 {
		t.Fatal("no checkpoint landed while the daemon was running")
	}
	// More training after the checkpoint still reaches the final write.
	if _, err := c.AnalyzeSiteContext(ctx, "app.php:9", "SELECT * FROM records WHERE ID=6 LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	sigtermAndWait(t, runErr)
	st, err := profile.Load(learnPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sites() != 2 {
		t.Fatalf("final store has %d sites, want 2", st.Sites())
	}
	// The atomic writes left no temp litter behind.
	entries, err := os.ReadDir(learnDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".jozad-profiles-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestHelperJozadProcess is not a test: it is the child-process body the
// rollout chaos tests re-exec, running a real jozad that can be SIGKILLed
// without taking the test process down.
func TestHelperJozadProcess(t *testing.T) {
	if os.Getenv("JOZAD_HELPER") != "1" {
		t.Skip("helper process body for the chaos tests")
	}
	if err := run(strings.Split(os.Getenv("JOZAD_ARGS"), "\x1f")); err != nil {
		fmt.Fprintf(os.Stderr, "helper run: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

type childDaemon struct {
	cmd  *exec.Cmd
	addr string
}

// spawnJozad re-execs the test binary as a real jozad child process and
// waits for it to announce its bound address on stderr.
func spawnJozad(t *testing.T, extraEnv []string, args ...string) *childDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperJozadProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "JOZAD_HELPER=1", "JOZAD_ARGS="+strings.Join(args, "\x1f"))
	cmd.Env = append(cmd.Env, extraEnv...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	const marker = "serving PTI analysis on "
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				rest := line[i+len(marker):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &childDaemon{cmd: cmd, addr: addr}
	case <-time.After(20 * time.Second):
		t.Fatal("child jozad did not announce its address")
		return nil
	}
}

func (c *childDaemon) sigkill() {
	_ = syscall.Kill(c.cmd.Process.Pid, syscall.SIGKILL)
	_, _ = c.cmd.Process.Wait()
}

func chaosPoolConfig() daemon.PoolConfig {
	return daemon.PoolConfig{
		Size:        2,
		Timeout:     10 * time.Second,
		DialTimeout: 500 * time.Millisecond,
		MaxAttempts: 2,
		BackoffMin:  time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}
}

func writeChaosCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "app.php"), []byte(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func growChaosCorpus(t *testing.T, dir string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "plugin.php"), []byte(`<?php
$q = "SELECT name FROM users WHERE uid=$uid";`), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRolloutChaosKillMidPrepare SIGKILLs one real jozad inside its
// prepare window: the coordinator aborts the whole rollout, the surviving
// shard keeps serving the OLD snapshot untouched, and once the dead shard
// is replaced a re-run converges the fleet on one single version.
func TestRolloutChaosKillMidPrepare(t *testing.T) {
	dir := writeChaosCorpus(t)
	a := spawnJozad(t, nil, "-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	b := spawnJozad(t, []string{"JOZAD_TEST_PREPARE_SLEEP=5s"},
		"-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	v0 := daemonVersion(t, a.addr)
	if v0 == "" {
		t.Fatal("child daemon serves unversioned snapshot")
	}
	if vb := daemonVersion(t, b.addr); vb != v0 {
		t.Fatalf("same corpus booted to different versions: %q vs %q", v0, vb)
	}
	growChaosCorpus(t, dir)

	sp, err := daemon.DialShardedPool([]string{a.addr, b.addr}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rollErr := make(chan error, 1)
	go func() {
		_, err := sp.Rollout(ctx)
		rollErr <- err
	}()
	// B is asleep inside its prepare hook; kill it mid-phase.
	time.Sleep(1 * time.Second)
	b.sigkill()
	select {
	case err := <-rollErr:
		if err == nil || !strings.Contains(err.Error(), "rollout aborted") {
			t.Fatalf("rollout = %v, want containment abort", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rollout did not return after mid-prepare kill")
	}
	// The survivor still serves the old whole version and sheds nothing.
	if got := daemonVersion(t, a.addr); got != v0 {
		t.Fatalf("survivor serves %q after aborted rollout, want %q kept", got, v0)
	}
	c := daemon.DialPool(a.addr, daemon.PoolConfig{Size: 1})
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=5 LIMIT 5"); err != nil {
		t.Fatalf("survivor shed a check: %v", err)
	}
	_ = c.Close()

	// Replace the dead shard and re-run: the fleet converges on one
	// version, built from the grown corpus.
	b2 := spawnJozad(t, nil, "-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	sp2, err := daemon.DialShardedPool([]string{a.addr, b2.addr}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	report, err := sp2.Rollout(ctx)
	if err != nil {
		t.Fatalf("re-run rollout: %v (report %+v)", err, report)
	}
	va, vb := daemonVersion(t, a.addr), daemonVersion(t, b2.addr)
	if va == "" || va != vb || va == v0 {
		t.Fatalf("fleet did not converge on one new version: %q vs %q (old %q)", va, vb, v0)
	}
}

// TestRolloutChaosKillMidCommit SIGKILLs one real jozad inside its commit
// window, after its sibling already committed: the committed shard keeps
// serving the NEW snapshot, and the dead shard converges on the same
// version by rebuilding from the same source on restart — no second
// rollout required.
func TestRolloutChaosKillMidCommit(t *testing.T) {
	dir := writeChaosCorpus(t)
	a := spawnJozad(t, nil, "-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	b := spawnJozad(t, []string{"JOZAD_TEST_COMMIT_SLEEP=8s"},
		"-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	v0 := daemonVersion(t, a.addr)
	growChaosCorpus(t, dir)

	sp, err := daemon.DialShardedPool([]string{a.addr, b.addr}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rollErr := make(chan error, 1)
	go func() {
		_, err := sp.Rollout(ctx)
		rollErr <- err
	}()
	// A commits as soon as the commit phase starts; observing its version
	// flip proves B is inside its own commit window (asleep in the hook).
	vNew := pollVersion(t, a.addr, v0)
	b.sigkill()
	select {
	case err := <-rollErr:
		if err == nil || !strings.Contains(err.Error(), "committed on 1/2 shards") {
			t.Fatalf("rollout = %v, want partial-commit report", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rollout did not return after mid-commit kill")
	}
	// The committed shard keeps the new self-tested snapshot and serves.
	if got := daemonVersion(t, a.addr); got != vNew {
		t.Fatalf("committed shard rolled back to %q, want %q", got, vNew)
	}
	c := daemon.DialPool(a.addr, daemon.PoolConfig{Size: 1})
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT name FROM users WHERE uid=7"); err != nil {
		t.Fatalf("committed shard shed a check: %v", err)
	}
	_ = c.Close()

	// The dead shard rebuilds from the same source tree on restart and
	// lands on the same content-derived version: the fleet is whole again.
	b2 := spawnJozad(t, nil, "-src", dir, "-addr", "127.0.0.1:0", "-drain", "2s")
	if got := daemonVersion(t, b2.addr); got != vNew {
		t.Fatalf("restarted shard serves %q, want convergence on %q", got, vNew)
	}
}
