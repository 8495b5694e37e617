// Command jozad runs the Joza PTI daemon: it extracts trusted fragments
// from an application's source tree, loads them into memory, and serves
// PTI analysis requests over TCP (the stand-in for the paper's named
// pipes).
//
// Usage:
//
//	jozad -src /path/to/app [-addr 127.0.0.1:7033] [-dialect mysql] [-cache query+structure]
//	      [-read-timeout 2m] [-max-request 1048576]
//	      [-max-inflight 64] [-admission-wait 50ms]
//	      [-max-query-bytes 1048576] [-max-tokens 4096] [-drain 10s]
//	      [-obs 127.0.0.1:9033] [-trace-sample 1]
//	jozad -selftest   # run against a built-in demo fragment set
//
// SIGTERM (or SIGINT) drains gracefully: the daemon stops accepting,
// finishes in-flight analyses within -drain, and exits 0.
//
// With -obs the daemon serves its observability surface over HTTP:
// Prometheus /metrics (counters plus latency and per-stage histograms),
// /healthz, /readyz (503 until a snapshot serves and again once a drain
// begins, before the daemon stops accepting), /traces (recent and notable
// decision traces) and the standard /debug/pprof/ handlers. Tracing
// itself is independent of the listener: sampled analyze requests also
// answer the wire protocol's "traces" verb and attach their span to the
// reply.
//
// Snapshots are versioned: the daemon hashes the fragment corpus, the
// profile store, the dialect and the analysis limits into a
// content-derived version (every replica of one fleet generation reports
// the same one), stamps it on replies and stats, and serves the two-phase
// rollout verbs — prepare (rebuild + self-test without swapping), commit,
// abort — that daemon.ShardedPool.Rollout coordinates fleet-wide. Every
// daemon of a fleet serves the whole corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"joza"
	"joza/internal/daemon"
	"joza/internal/engine"
	"joza/internal/fragments"
	"joza/internal/installer"
	"joza/internal/obs"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// testReady, when set by a test, receives the bound daemon and
// observability addresses once both listeners are up.
var testReady func(daemonAddr, obsAddr string)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jozad: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jozad", flag.ContinueOnError)
	src := fs.String("src", "", "application source directory to extract fragments from")
	addr := fs.String("addr", "127.0.0.1:7033", "listen address")
	dialectName := fs.String("dialect", "mysql", "SQL dialect the daemon lexes under: mysql, postgres, sqlite")
	cacheMode := fs.String("cache", "query+structure", "cache mode: none, query, query+structure")
	cacheCap := fs.Int("cache-capacity", 8192, "entries per cache")
	watch := fs.Duration("watch", 0, "with -src: re-extract fragments at this interval when files change")
	readTimeout := fs.Duration("read-timeout", 2*time.Minute, "drop connections idle longer than this (0 disables)")
	maxRequest := fs.Int64("max-request", daemon.DefaultMaxRequestBytes, "max bytes per wire request")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently running analyses; excess requests shed with an overloaded error (0 disables)")
	admissionWait := fs.Duration("admission-wait", 50*time.Millisecond, "with -max-inflight: how long a request may wait for a slot before shedding")
	maxQueryBytes := fs.Int("max-query-bytes", 0, "reject queries longer than this before analysis (0 disables)")
	maxTokens := fs.Int("max-tokens", 0, "reject queries lexing into more tokens than this (0 disables)")
	drain := fs.Duration("drain", 10*time.Second, "on SIGTERM/SIGINT: finish in-flight requests for up to this long before force-closing")
	obsAddr := fs.String("obs", "", "observability HTTP listen address: /metrics, /healthz, /traces, /debug/pprof/ (empty disables)")
	traceSample := fs.Int("trace-sample", 1, "trace one analyze request in N (0 disables tracing)")
	traceRing := fs.Int("trace-ring", trace.DefaultRingSize, "capacity of each trace ring buffer")
	traceSlow := fs.Duration("trace-slow", 0, "also mark benign traces at or above this duration notable (0: attacks only)")
	profilesPath := fs.String("profiles", "", "serve query-skeleton profile verdicts from this store file; with -watch the file is reloaded when it changes (a corrupt file keeps the prior store)")
	learnPath := fs.String("learn", "", "profile learning mode: record (site, skeleton) pairs for requests that carry a call site and write the store here on shutdown (overrides -profiles)")
	checkpoint := fs.Duration("checkpoint", 0, "with -learn: atomically persist the learned store at this interval, so a crash loses at most one interval of training (0: write only on graceful drain)")
	readyGrace := fs.Duration("ready-grace", 0, "on SIGTERM/SIGINT: keep accepting for this long after /readyz flips not-ready, so load balancers drain routing before the listener closes")
	selftest := fs.Bool("selftest", false, "serve a built-in demo fragment set and print a probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dialect, err := sqltoken.ParseDialect(*dialectName)
	if err != nil {
		return err
	}

	var (
		set *fragments.Set
		ins *installer.Installer
	)
	switch {
	case *selftest:
		set = fragments.NewSetDialect(dialect, joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";`))
	case *src != "":
		var err error
		ins, err = installer.New(*src, installer.WithDialect(dialect))
		if err != nil {
			return err
		}
		set = ins.Set()
	default:
		return fmt.Errorf("either -src or -selftest is required")
	}
	mode, err := parseCacheMode(*cacheMode)
	if err != nil {
		return err
	}
	ptiOpts := []pti.Option{pti.WithDialect(dialect)}
	if *maxQueryBytes > 0 {
		ptiOpts = append(ptiOpts, pti.WithMaxQueryBytes(*maxQueryBytes))
	}
	if *maxTokens > 0 {
		ptiOpts = append(ptiOpts, pti.WithMaxTokens(*maxTokens))
	}
	var recorder *profile.Recorder
	if *learnPath != "" {
		recorder = profile.NewRecorderDialect(dialect)
		log.Printf("profile learning: will write %s on shutdown", *learnPath)
	}
	// buildSnapshot turns the corpus into the snapshot the daemon serves
	// whole: the analyzer, the profile store (or the learning recorder),
	// and the content-derived snapshot version.
	limitsTag := fmt.Sprintf("q%d:t%d", *maxQueryBytes, *maxTokens)
	buildSnapshot := func(corpus *fragments.Set) (*engine.Snapshot, error) {
		if corpus.Len() == 0 {
			return nil, fmt.Errorf("no SQL-bearing fragments found")
		}
		profiles := engine.ProfileStage{Recorder: recorder}
		if recorder == nil && *profilesPath != "" {
			store, err := profile.Load(*profilesPath)
			if err != nil {
				return nil, err
			}
			// Skeletons only compare within one dialect: refuse a store
			// trained under another rather than serve verdicts computed
			// across lexers.
			if err := store.ForDialect(dialect); err != nil {
				return nil, fmt.Errorf("%s: %w", *profilesPath, err)
			}
			profiles.Store = store
		}
		analyzer := pti.NewCached(pti.New(corpus, ptiOpts...), mode, *cacheCap)
		return daemon.NewSnapshot(analyzer, profiles, engine.ComputeVersion(corpus, profiles.Store, dialect, limitsTag)), nil
	}
	tracer := trace.New(trace.Config{
		SampleEvery:   *traceSample,
		RingSize:      *traceRing,
		SlowThreshold: *traceSlow,
	})
	srvOpts := []daemon.ServerOption{
		daemon.WithReadTimeout(*readTimeout),
		daemon.WithMaxRequestBytes(*maxRequest),
		daemon.WithAdmission(*maxInflight, *admissionWait),
		daemon.WithTracer(tracer),
	}
	snap, err := buildSnapshot(set)
	if err != nil {
		return err
	}
	if snap.Profiles != nil {
		log.Printf("profiles loaded: %d sites, %d skeletons", snap.Profiles.Sites(), snap.Profiles.Skeletons())
	}
	srvOpts = append(srvOpts,
		daemon.WithSnapshot(snap),
		// prepare rebuilds the whole snapshot from the sources of record —
		// re-extracted fragments AND a fresh profile load — so a committed
		// rollout can never pair fragments from one generation with
		// profiles from another.
		daemon.WithReloader(func(ctx context.Context) (*engine.Snapshot, error) {
			if ins != nil {
				if _, err := ins.Refresh(); err != nil {
					return nil, err
				}
				return buildSnapshot(ins.Set())
			}
			return buildSnapshot(set)
		}),
		daemon.WithRolloutHook(testPhaseSleep),
	)
	srv := daemon.NewServer(snap.PTI, srvOpts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("serving PTI analysis on %s (%d fragments, %s, %s, snapshot %s)", ln.Addr(), set.Len(), mode, dialect, snap.Version)

	// draining flips /readyz not-ready ahead of the listener closing, so
	// load balancers stop routing new connections while the daemon still
	// accepts and finishes in-flight work.
	var draining atomic.Bool
	boundObs := ""
	if *obsAddr != "" {
		obsSrv := obs.NewServer(srv.Stats, tracer, obs.WithReady(func() bool {
			return !draining.Load() && srv.Ready()
		}))
		bound, err := obsSrv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer func() { _ = obsSrv.Close() }()
		boundObs = bound.String()
		log.Printf("observability on http://%s (/metrics /healthz /readyz /traces /debug/pprof/)", boundObs)
	}
	// Register for SIGTERM before announcing readiness so nothing can
	// deliver a fatal default-action signal in the startup gap.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)

	if testReady != nil {
		testReady(ln.Addr().String(), boundObs)
	}

	watchProfiles := *learnPath == "" && *profilesPath != ""
	if *watch > 0 && (ins != nil || watchProfiles) {
		// Preprocessing loop, unified across inputs: fragment re-extraction
		// and profile-store reload feed ONE rebuild and ONE swap, so the
		// daemon can never install fragments from one generation alongside
		// profiles from another. The sticky contract survives the merge: a
		// failed rebuild keeps the prior snapshot serving, and every later
		// tick retries until one succeeds.
		go func() {
			ticker := time.NewTicker(*watch)
			defer ticker.Stop()
			var lastMod time.Time
			if watchProfiles {
				if fi, err := os.Stat(*profilesPath); err == nil {
					lastMod = fi.ModTime()
				}
			}
			pending := false
			for range ticker.C {
				rebuild := pending
				if ins != nil {
					changed, err := ins.Refresh()
					if err != nil {
						log.Printf("refresh: %v", err)
						continue
					}
					rebuild = rebuild || changed
				}
				if watchProfiles {
					if fi, err := os.Stat(*profilesPath); err == nil && fi.ModTime().After(lastMod) {
						lastMod = fi.ModTime()
						rebuild = true
					}
				}
				if !rebuild {
					continue
				}
				full := set
				if ins != nil {
					full = ins.Set()
				}
				next, err := buildSnapshot(full)
				if err != nil {
					pending = true
					log.Printf("reload: %v (keeping prior snapshot)", err)
					continue
				}
				pending = false
				srv.SetSnapshot(next)
				log.Printf("snapshot reloaded: %d fragments, version %s", full.Len(), next.Version)
			}
		}()
	}

	// Learning-mode checkpoints: persist the accumulating store at an
	// interval with the same atomic temp-file-and-rename the final write
	// uses, bounding what a crash can lose to one interval.
	var ckStop, ckDone chan struct{}
	if recorder != nil && *checkpoint > 0 {
		ckStop, ckDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ckDone)
			ticker := time.NewTicker(*checkpoint)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := writeProfilesAtomic(*learnPath, recorder.Store()); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				case <-ckStop:
					return
				}
			}
		}()
	}

	if *selftest {
		go probe(ln.Addr().String(), dialect)
	}

	// Serve in the background so SIGTERM/SIGINT can drain gracefully:
	// stop accepting, finish in-flight analyses within the drain budget,
	// then exit 0. A second signal is not needed — the drain deadline
	// bounds the wait either way.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigCh:
		// Readiness flips before the drain starts: anything watching
		// /readyz sees not-ready while the listener still accepts, and
		// -ready-grace widens that window for slow health-check loops.
		draining.Store(true)
		if *readyGrace > 0 {
			time.Sleep(*readyGrace)
		}
		log.Printf("received %v: draining (up to %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain deadline expired; connections force-closed")
		} else {
			log.Printf("drained cleanly")
		}
		<-serveErr
		if recorder != nil {
			if ckStop != nil {
				close(ckStop)
				<-ckDone
			}
			store := recorder.Store()
			if err := writeProfilesAtomic(*learnPath, store); err != nil {
				return fmt.Errorf("writing learned profiles: %w", err)
			}
			log.Printf("profiles written to %s: %d sites, %d skeletons", *learnPath, store.Sites(), store.Skeletons())
		}
		return nil
	}
}

// writeProfilesAtomic persists a profile store through a same-directory
// temp file and rename, so concurrent readers — and a crash mid-write —
// see either the old bytes or the new bytes, never a torn file.
func writeProfilesAtomic(path string, store *profile.Store) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".jozad-profiles-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(store.Bytes()); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// testPhaseSleep widens the rollout phases via environment knobs
// (JOZAD_TEST_PREPARE_SLEEP, JOZAD_TEST_COMMIT_SLEEP) so chaos tests can
// SIGKILL a daemon mid-prepare or mid-commit deterministically. With the
// variables unset it costs one getenv per rollout phase.
func testPhaseSleep(phase string) {
	var env string
	switch phase {
	case "prepare":
		env = "JOZAD_TEST_PREPARE_SLEEP"
	case "commit":
		env = "JOZAD_TEST_COMMIT_SLEEP"
	default:
		return
	}
	if v := os.Getenv(env); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			time.Sleep(d)
		}
	}
}

func parseCacheMode(s string) (pti.CacheMode, error) {
	switch s {
	case "none":
		return pti.CacheNone, nil
	case "query":
		return pti.CacheQuery, nil
	case "query+structure":
		return pti.CacheQueryAndStructure, nil
	default:
		return 0, fmt.Errorf("unknown cache mode %q", s)
	}
}

// probe exercises a freshly started self-test daemon once, speaking the
// same dialect the daemon serves.
func probe(addr string, dialect sqltoken.Dialect) {
	c, err := daemon.Dial(addr)
	if err != nil {
		log.Printf("selftest dial: %v", err)
		return
	}
	defer c.Close()
	c.SetDialect(dialect)
	for _, q := range []string{
		"SELECT * FROM records WHERE ID=5 LIMIT 5",
		"SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
	} {
		reply, err := c.AnalyzeSiteContext(context.Background(), "", q)
		if err != nil {
			log.Printf("selftest: %v", err)
			return
		}
		log.Printf("selftest: attack=%v query=%q", reply.Attack, q)
	}
	st, err := c.Stats()
	if err != nil {
		log.Printf("selftest stats: %v", err)
		return
	}
	log.Printf("selftest stats: checks=%d attacks=%d cacheHits=%d cacheMisses=%d p99=%s",
		st.Checks, st.Attacks,
		st.CacheQueryHits+st.CacheStructureHits, st.CacheMisses,
		time.Duration(st.LatencyP99Ns))
}
