package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"joza"
	"joza/internal/evasion"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/testbed"
	"joza/internal/webapp"
	"joza/internal/workload"
)

// poolConns is the remote workload's daemon pool size, the pool's default
// of 2 pinned rather than read from the host. The single caller takes the
// pool's connections in turn, so both carry checks.
const poolConns = 2

// gcPercent is the GOGC every run uses. The mark phase walks the live heap
// and is the part of a check that neighbours on a shared host slow down
// most; collecting less often keeps it from dominating the timing metrics.
// Allocation regressions still show in allocs_per_check and
// alloc_bytes_per_check, which do not depend on it.
const gcPercent = 800

// wpCacheCapacity is the PTI query and structure cache size of the
// WordPress-shaped workloads.
const wpCacheCapacity = 8192

// workloadSpec names one workload and generates its inputs from a seed.
type workloadSpec struct {
	name string
	gen  func(seed int64) (*inputs, error)
}

var workloads = []workloadSpec{
	{"wp-read", genWPRead},
	{"wp-write", genWPWrite},
	{"lab-attack", genLabAttack},
	{"daemon-rtt", genDaemonRTT},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs is everything a workload generates before timing. The system
// under test receives only these values.
type inputs struct {
	fragments []string
	// profiles trains the per-call-site skeleton profiles; it runs inside
	// set-up because training is part of standing the system up.
	profiles func() (*joza.ProfileStore, error)
	stream   []check // the timed check stream, walked cyclically
	distinct []check // the first check of each distinct query, for warm-up and standalone timings
	cacheCap int     // PTI query and structure cache capacity
	audit    bool    // write an audit log to a counting sink
	remote   bool    // front door is HybridClient over the in-process daemon
}

func newInputs(fragments []string, profiles func() (*joza.ProfileStore, error), stream []check) *inputs {
	seen := make(map[string]bool)
	var distinct []check
	for _, c := range stream {
		if !seen[c.query] {
			seen[c.query] = true
			distinct = append(distinct, c)
		}
	}
	return &inputs{fragments: fragments, profiles: profiles, stream: stream, distinct: distinct, cacheCap: wpCacheCapacity}
}

// wpSite names the call site issuing a query of the workload site, so
// every check carries one and the profile stage runs.
func wpSite(q string) string {
	for _, s := range []struct{ prefix, site string }{
		{"SELECT name, value FROM options", "wp:options"},
		{"SELECT id, title, body FROM posts", "wp:post"},
		{"SELECT id, author, body FROM comments", "wp:comments"},
		{"SELECT COUNT(*) FROM comments", "wp:comment-count"},
		{"INSERT INTO comments", "wp:comment-insert"},
	} {
		if strings.HasPrefix(q, s.prefix) {
			return s.site
		}
	}
	return "wp:search"
}

// wpChecks flattens generated requests into checks. The site's traffic is
// benign by construction: its fragments cover every query it issues.
func wpChecks(reqs []*workload.Request) []check {
	var out []check
	for _, r := range reqs {
		for _, ev := range r.Events {
			out = append(out, check{site: wpSite(ev.Query), query: ev.Query, inputs: ev.Inputs})
		}
	}
	return out
}

// wpTraining generates the profile-training traffic: a separate benign
// stream from seed+1 that holds every request kind, so every skeleton the
// timed stream issues is seen from its call site.
func wpTraining(seed int64) ([]check, error) {
	site, err := workload.NewSite(1001, seed+1)
	if err != nil {
		return nil, err
	}
	var train []check
	for _, kind := range []workload.RequestKind{workload.Read, workload.Write, workload.Search} {
		train = append(train, wpChecks(site.GenerateRequests(kind, 50))...)
	}
	return train, nil
}

// recordProfiles returns the set-up step that learns profiles from train.
func recordProfiles(train []check) func() (*joza.ProfileStore, error) {
	return func() (*joza.ProfileStore, error) {
		rec := joza.NewProfileRecorder()
		for _, c := range train {
			rec.Record(c.site, c.query)
		}
		return rec.Store(), nil
	}
}

func wpMix(seed int64, writeFraction float64, requests int) (*inputs, error) {
	site, err := workload.NewSite(1001, seed)
	if err != nil {
		return nil, err
	}
	train, err := wpTraining(seed)
	if err != nil {
		return nil, err
	}
	stream := wpChecks(site.GenerateMix(workload.Mix{WriteFraction: writeFraction}, requests))
	return newInputs(site.Fragments.Fragments(), recordProfiles(train), stream), nil
}

func genWPRead(seed int64) (*inputs, error) { return wpMix(seed, 0.01, 4000) }

func genDaemonRTT(seed int64) (*inputs, error) {
	in, err := wpMix(seed, 0.04, 4000)
	if err != nil {
		return nil, err
	}
	in.remote = true
	return in, nil
}

// genWPWrite alternates comment posts and searches until the stream holds
// 4x the cache capacity in distinct INSERTs: cycling through more distinct
// keys than the LRU holds, no INSERT ever hits the exact-query cache.
func genWPWrite(seed int64) (*inputs, error) {
	site, err := workload.NewSite(1001, seed)
	if err != nil {
		return nil, err
	}
	var reqs []*workload.Request
	inserts := make(map[string]bool)
	for len(inserts) < 4*wpCacheCapacity {
		w := site.NextRequest(workload.Write)
		for _, ev := range w.Events {
			if strings.HasPrefix(ev.Query, "INSERT") {
				inserts[ev.Query] = true
			}
		}
		reqs = append(reqs, w, site.NextRequest(workload.Search))
	}
	train, err := wpTraining(seed)
	if err != nil {
		return nil, err
	}
	return newInputs(site.Fragments.Fragments(), recordProfiles(train), wpChecks(reqs)), nil
}

// Gap-class cases of the detection matrix, rebuilt from their definitions
// in internal/testbed: a fragment-vocabulary tautology delivered base64
// encoded, and a second-order payload read back from stored state.
const (
	fragmentRebuiltPlugin  = "adrotate"
	fragmentRebuiltPayload = "1 or 1=1"
	secondOrderSite        = "plugin:stored-redirect"
	secondOrderQuery       = "SELECT id, title FROM posts WHERE id="
)

// labCorpus builds the WP-SQLI-LAB detection corpus as (site, query,
// inputs) tuples through the lab's public request and transform APIs:
// benign values, the 50 original exploits, their NTI-evasion mutants,
// Taintless rewrites, and the two gap classes. Each case is labelled with
// the verdict the full NTI+PTI+profile hybrid must return.
func labCorpus(lab *testbed.Lab) []check {
	var out []check
	add := func(s *testbed.Spec, payload string, attack bool) {
		req := lab.Request(s, payload)
		v := webapp.MagicQuotes(webapp.TrimWhitespace(req.Get[s.Param]))
		out = append(out, check{site: "plugin:" + s.Name, query: s.BuildQuery(v), inputs: req.Inputs(), attack: attack})
	}
	tl := evasion.NewTaintless(lab.Fragments)
	for _, s := range lab.Specs {
		add(s, s.Benign, false)
		if !s.Quoted && s.Decode != testbed.DecodeBase64 {
			for _, v := range []string{"0", "7", "23", "42", "59"} {
				add(s, v, false)
			}
		}
		add(s, s.Exploit, true)
		switch {
		case s.Decode == testbed.DecodeBase64:
			// NTI is already blind to base64; the mutant is the original.
		case s.Quoted:
			add(s, evasion.WhitespacePadding(s.Exploit, nti.DefaultThreshold), true)
		default:
			add(s, evasion.QuoteStuffing(s.Exploit, nti.DefaultThreshold), true)
		}
		if rewrite, ok := tl.Evade(s.Exploit); ok {
			add(s, rewrite, true)
		}
	}
	add(lab.SpecByName(fragmentRebuiltPlugin), fragmentRebuiltPayload, true)
	marker := []joza.Input{{Source: "get", Name: "go", Value: "1"}}
	out = append(out,
		check{site: secondOrderSite, query: secondOrderQuery + "2", inputs: marker},
		check{site: secondOrderSite, query: secondOrderQuery + fragmentRebuiltPayload, inputs: marker, attack: true})
	return out
}

// genLabAttack shuffles eight copies of the lab corpus with the seed. The
// corpus itself is fixed; the seed orders it.
func genLabAttack(seed int64) (*inputs, error) {
	lab, err := testbed.NewLab()
	if err != nil {
		return nil, err
	}
	corpus := labCorpus(lab)
	var stream []check
	for i := 0; i < 8; i++ {
		stream = append(stream, corpus...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	in := newInputs(lab.Unprotected.FragmentTexts(), lab.TrainProfiles, stream)
	in.cacheCap = 4096 // the guard's default
	in.audit = true
	return in, nil
}

// countingWriter is the audit sink: it counts records and bytes and keeps
// nothing.
type countingWriter struct {
	writes, bytes atomic.Uint64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	w.bytes.Add(uint64(len(p)))
	return len(p), nil
}

// door is a front door's public check call.
type door func(ctx context.Context, site, query string, inputs []joza.Input) (joza.Verdict, error)

// system is one constructed system under test and the public handles the
// per-layer report reads.
type system struct {
	door     door
	cache    func() pti.CacheStats
	ntiStats func() nti.Stats
	stages   func() []metrics.StageLatency
	audit    *countingWriter
	close    func()
}

func (s *system) step(c *check) (bool, error) {
	v, err := s.door(context.Background(), c.site, c.query, c.inputs)
	return v.Attack, err
}

// build constructs the system under test from the workload's inputs —
// profile training, guard or daemon construction — and runs the warm-up
// pass over every distinct query. With traced set, every check is traced.
func build(in *inputs, traced bool, t *tally) (*system, error) {
	store, err := in.profiles()
	if err != nil {
		return nil, fmt.Errorf("train profiles: %w", err)
	}
	var sys *system
	if in.remote {
		rig, err := startRig(in, store, traced)
		if err != nil {
			return nil, err
		}
		sys = rig.system()
	} else {
		sys, err = buildGuard(in, store, traced)
		if err != nil {
			return nil, err
		}
	}
	if err := t.warm(sys.step, in.distinct); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func buildGuard(in *inputs, store *joza.ProfileStore, traced bool) (*system, error) {
	sink := new(countingWriter)
	opts := []joza.Option{
		joza.WithFragments(in.fragments),
		joza.WithCacheMode(joza.CacheQueryAndStructure, in.cacheCap),
		joza.WithProfileStore(store),
	}
	if in.audit {
		opts = append(opts, joza.WithAuditLog(sink))
	}
	if traced {
		opts = append(opts, joza.WithObservability(joza.ObservabilityConfig{TraceSampleEvery: 1}))
	}
	g, err := joza.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("build guard: %w", err)
	}
	return &system{
		door:  g.CheckContextAt,
		cache: g.PTICacheStats,
		ntiStats: func() nti.Stats {
			m := g.Metrics()
			return nti.Stats{
				MatcherCalls: m.NTIMatcherCalls, EarlyExits: m.NTIMatcherEarlyExits,
				PrefilterChecks: m.NTIPrefilterChecks, PrefilterRejects: m.NTIPrefilterRejects,
			}
		},
		stages: func() []metrics.StageLatency { return g.Metrics().Stages },
		audit:  sink,
		close:  func() { _ = g.Close() }, // the counting sink cannot fail a flush
	}, nil
}

// tally counts every check the run attempted and every wrong or failed
// one, across warm-up and timed phases.
type tally struct {
	attempted, failed uint64
	firstErr          error
}

func (t *tally) add(r *loopResult) {
	t.attempted += r.checks
	t.failed += r.failed()
	if t.firstErr == nil {
		switch {
		case r.firstErr != nil:
			t.firstErr = r.firstErr
		case r.mismatches > 0:
			t.firstErr = fmt.Errorf("%d wrong verdicts", r.mismatches)
		}
	}
}

// warm runs every distinct check once, in order, checking each verdict. A
// setup that cannot serve its warm-up correctly fails the run.
func (t *tally) warm(fn stepFunc, distinct []check) error {
	for i := range distinct {
		c := &distinct[i]
		attack, err := fn(c)
		t.attempted++
		if err == nil && attack != c.attack {
			err = fmt.Errorf("warm-up verdict attack=%v, want %v for %s %q", attack, c.attack, c.site, c.query)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
