package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"joza"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
)

// perLayerMetrics are the traced run's metrics, one group per module. Each
// comment names the end-to-end metric and workload it should move.
var perLayerMetrics = []metricSpec{
	// cpu_us_per_check on lab-attack and daemon-rtt; little on wp-read.
	{"sqltoken.lex_ns", "ns"},
	{"sqltoken.lex_per_check", "count"},
	// cpu_us_per_check on wp-write; ~0 on wp-read, where query-cache hits skip it.
	{"sqlparse.structure_key_ns", "ns"},
	// Hits: check_p50_us on wp-read. Cover: cpu_us_per_check on lab-attack.
	{"pti.query_hit_frac", "ratio"},
	{"pti.structure_hit_frac", "ratio"},
	{"pti.miss_frac", "ratio"},
	{"pti.analyze_ns", "ns"},
	{"pti.cover_ns", "ns"},
	// cpu_us_per_check on wp-write and lab-attack; small on wp-read.
	{"nti.analyze_ns", "ns"},
	{"nti.pairs_per_check", "count"},
	{"nti.prefilter_reject_frac", "ratio"},
	{"nti.matcher_calls_per_check", "count"},
	{"nti.early_exit_frac", "ratio"},
	// check_p50_us on wp-read, the largest share of a cheap check.
	{"profile.lookup_ns", "ns"},
	{"profile.unseen_frac", "ratio"},
	// check_p50_us and allocs_per_check on wp-read; smallest on daemon-rtt.
	{"engine.self_ns", "ns"},
	// cpu_us_per_check and alloc_bytes_per_check on lab-attack only.
	{"audit.records_per_check", "count"},
	{"audit.bytes_per_check", "B"},
	// The cost of tracing every check, on wp-read above all.
	{"trace.overhead_ns", "ns"},
	// check_p50_us and cpu_us_per_check on daemon-rtt. Measured on every
	// workload, through a daemon serving that workload's stream.
	{"daemon.round_trip_ns", "ns"},
	{"daemon.server_analyze_ns", "ns"},
	{"daemon.client_self_ns", "ns"},
	{"daemon.reply_encode_ns", "ns"},
	{"daemon.reply_decode_ns", "ns"},
	{"daemon.token_stream_ns", "ns"},
	{"daemon.request_bytes_per_check", "B"},
	{"daemon.reply_bytes_per_check", "B"},
	{"daemon.reply_tokens_frac", "ratio"},
	{"daemon.conn_writes_per_check", "count"},
	{"daemon.conn_reads_per_check", "count"},
	{"daemon.dials", "count"},
	// cpu_us_per_check wherever allocs_per_check moves.
	{"runtime.gc_cpu_frac", "ratio"},
}

// doubleCountSlack is how far the replayed layer sum may exceed the
// untraced mean check before the decomposition is reported as
// double-counting.
const doubleCountSlack = 1.10

// layerSums accumulates a replay's spans.
type layerSums struct {
	pti, nti, profile, roundTrip, decode time.Duration
	sited, unseen                        uint64
}

// replay pushes checks through the calls engine.Check makes for an
// in-process Guard — cached PTI, then NTI when an input has a value, then
// the profile lookup when the check has a call site — on analyzers built
// exactly as the guard builds them, timing each call.
type replay struct {
	pti   *pti.Cached
	nti   *nti.Analyzer
	store *joza.ProfileStore
	sums  layerSums
}

func newReplay(in *inputs, store *joza.ProfileStore) *replay {
	return &replay{
		pti:   pti.NewCached(pti.New(fragments.NewSet(in.fragments)), pti.CacheQueryAndStructure, in.cacheCap),
		nti:   nti.MustNew(),
		store: store,
	}
}

func (r *replay) step(c *check) (bool, error) {
	s := &r.sums
	ctx := context.Background()
	t0 := time.Now()
	res, toks, err := r.pti.AnalyzeLazyCtx(ctx, c.query, nil, nil)
	t1 := time.Now()
	s.pti += t1.Sub(t0)
	if err != nil {
		return false, err
	}
	attack := res.Attack
	if c.hasInputValues() {
		nres, err := r.nti.AnalyzeCtx(ctx, c.query, toks, c.inputs, nil)
		t2 := time.Now()
		s.nti += t2.Sub(t1)
		t1 = t2
		if err != nil {
			return false, err
		}
		attack = attack || nres.Attack
	}
	if c.site != "" {
		sk := profile.SkeletonDialect(r.store.Dialect(), c.query)
		lookup := r.store.Lookup(c.site, sk)
		s.profile += time.Since(t1)
		s.sited++
		if lookup == profile.SkeletonUnseen {
			s.unseen++
			attack = true
		}
	}
	return attack, nil
}

// wireReplay pushes checks through the calls a HybridClient's engine.Check
// makes over the daemon pool: the round trip, then — when an input has a
// value — the reply's token stream conversion and NTI.
type wireReplay struct {
	pool *daemon.Pool
	nti  *nti.Analyzer
	sums layerSums
}

func (r *wireReplay) step(c *check) (bool, error) {
	s := &r.sums
	ctx := context.Background()
	t0 := time.Now()
	reply, err := r.pool.AnalyzeSiteContext(ctx, c.site, c.query)
	t1 := time.Now()
	s.roundTrip += t1.Sub(t0)
	if err != nil {
		return false, err
	}
	attack := reply.Attack || (reply.Profile != nil && reply.Profile.Attack)
	if c.hasInputValues() {
		toks := reply.TokenStream()
		t2 := time.Now()
		s.decode += t2.Sub(t1)
		res, err := r.nti.AnalyzeCtx(ctx, c.query, toks, c.inputs, nil)
		s.nti += time.Since(t2)
		if err != nil {
			return false, err
		}
		attack = attack || res.Attack
	}
	return attack, nil
}

// perCheck divides a total by a check count, as float64.
func perCheck[T ~int64 | ~uint64](total T, checks uint64) float64 {
	return ratio(float64(total), float64(checks))
}

func stageCount(stages []metrics.StageLatency, name string) uint64 {
	for _, s := range stages {
		if s.Stage == name {
			return s.Count
		}
	}
	return 0
}

// measureLayers is the traced run. It splits dur across five phases, each
// on freshly built and warmed state: the untraced front door with counter
// deltas (30%), the same front door tracing every check (15%), the
// in-process replay (15%), the daemon rig — HybridClient, then a replay
// over its pool — (10% each), and standalone timings over the distinct
// queries (20%).
func measureLayers(in *inputs, dur time.Duration, t *tally, out io.Writer) (map[string]float64, error) {
	part := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	v := map[string]float64{}

	sys, err := build(in, false, t)
	if err != nil {
		return nil, err
	}
	cache0, ntiS0 := sys.cache(), sys.ntiStats()
	audW0, audB0 := sys.audit.writes.Load(), sys.audit.bytes.Load()
	a := drive(in.stream, part(0.30), sys.step, nil)
	t.add(a)
	cache1, ntiS1 := sys.cache(), sys.ntiStats()
	audW1, audB1 := sys.audit.writes.Load(), sys.audit.bytes.Load()
	sys.close()
	lookups := float64(cache1.QueryHits - cache0.QueryHits + cache1.StructureHits - cache0.StructureHits + cache1.Misses - cache0.Misses)
	v["pti.query_hit_frac"] = ratio(float64(cache1.QueryHits-cache0.QueryHits), lookups)
	v["pti.structure_hit_frac"] = ratio(float64(cache1.StructureHits-cache0.StructureHits), lookups)
	v["pti.miss_frac"] = ratio(float64(cache1.Misses-cache0.Misses), lookups)
	v["nti.pairs_per_check"] = perCheck(ntiS1.PrefilterChecks-ntiS0.PrefilterChecks, a.checks)
	v["nti.prefilter_reject_frac"] = ratio(float64(ntiS1.PrefilterRejects-ntiS0.PrefilterRejects), float64(ntiS1.PrefilterChecks-ntiS0.PrefilterChecks))
	v["nti.matcher_calls_per_check"] = perCheck(ntiS1.MatcherCalls-ntiS0.MatcherCalls, a.checks)
	v["nti.early_exit_frac"] = ratio(float64(ntiS1.EarlyExits-ntiS0.EarlyExits), float64(ntiS1.MatcherCalls-ntiS0.MatcherCalls))
	v["audit.records_per_check"] = perCheck(audW1-audW0, a.checks)
	v["audit.bytes_per_check"] = perCheck(audB1-audB0, a.checks)
	v["runtime.gc_cpu_frac"] = a.gcCPUFrac
	untracedNs := a.hist.meanNs()

	tsys, err := build(in, true, t)
	if err != nil {
		return nil, err
	}
	stages0 := tsys.stages()
	b := drive(in.stream, part(0.15), tsys.step, nil)
	t.add(b)
	stages1 := tsys.stages()
	tsys.close()
	v["trace.overhead_ns"] = b.hist.meanNs() - untracedNs
	v["sqltoken.lex_per_check"] = perCheck(stageCount(stages1, "lex")-stageCount(stages0, "lex"), b.checks)
	fmt.Fprintf(out, "  trace stage histograms (cross-check, every check traced):\n")
	for _, s := range stages1 {
		fmt.Fprintf(out, "    %-14s %8.3f per check  mean %8.0f ns\n", s.Stage,
			perCheck(s.Count-stageCount(stages0, s.Stage), b.checks), float64(s.MeanNs))
	}

	store, err := in.profiles()
	if err != nil {
		return nil, err
	}
	rp := newReplay(in, store)
	if err := t.warm(rp.step, in.distinct); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	c := drive(in.stream, part(0.15), rp.step, nil)
	t.add(c)
	rs := rp.sums
	v["pti.analyze_ns"] = perCheck(rs.pti, c.checks)
	v["nti.analyze_ns"] = perCheck(rs.nti, c.checks)
	v["profile.lookup_ns"] = perCheck(rs.profile, c.checks)
	v["profile.unseen_frac"] = ratio(float64(rs.unseen), float64(rs.sited))
	layerNs := perCheck(rs.pti+rs.nti+rs.profile, c.checks)

	rig, err := startRig(in, store, false)
	if err != nil {
		return nil, err
	}
	rsys := rig.system()
	if err := t.warm(rsys.step, in.distinct); err != nil {
		rig.close()
		return nil, fmt.Errorf("daemon rig: %w", err)
	}
	cio0, sio0 := rig.clientIO.snapshot(), rig.serverIO.snapshot()
	d := drive(in.stream, part(0.10), rsys.step, nil)
	t.add(d)
	cio1, sio1 := rig.clientIO.snapshot(), rig.serverIO.snapshot()
	wr := &wireReplay{pool: rig.pool, nti: rig.nti}
	dr := drive(in.stream, part(0.10), wr.step, nil)
	t.add(dr)
	v["daemon.dials"] = float64(rig.pool.Dials())
	rig.close()
	ws := wr.sums
	v["daemon.round_trip_ns"] = perCheck(ws.roundTrip, dr.checks)
	v["daemon.client_self_ns"] = d.hist.meanNs() - v["daemon.round_trip_ns"]
	v["daemon.request_bytes_per_check"] = perCheck(cio1.writeBytes-cio0.writeBytes, d.checks)
	v["daemon.reply_bytes_per_check"] = perCheck(cio1.readBytes-cio0.readBytes, d.checks)
	v["daemon.conn_writes_per_check"] = perCheck(cio1.writes-cio0.writes+sio1.writes-sio0.writes, d.checks)
	v["daemon.conn_reads_per_check"] = perCheck(cio1.reads-cio0.reads+sio1.reads-sio0.reads, d.checks)
	if in.remote {
		layerNs = perCheck(ws.roundTrip+ws.decode+ws.nti, dr.checks)
	}

	v["engine.self_ns"] = untracedNs - layerNs
	fmt.Fprintf(out, "  untraced mean check %.0f ns, replayed layer sum %.0f ns", untracedNs, layerNs)
	if layerNs > doubleCountSlack*untracedNs {
		fmt.Fprintf(out, ": DOUBLE-COUNTING, the layers exceed the check by %.0f%%; engine.self_ns is not meaningful\n",
			100*(layerNs/untracedNs-1))
	} else {
		fmt.Fprintf(out, ": engine.self_ns %.0f ns\n", v["engine.self_ns"])
	}

	if err := standalone(in, store, part(0.20), v); err != nil {
		return nil, err
	}
	return v, nil
}

// ioSnapshot is a point-in-time copy of connCounters.
type ioSnapshot struct{ reads, writes, readBytes, writeBytes uint64 }

func (n *connCounters) snapshot() ioSnapshot {
	return ioSnapshot{n.reads.Load(), n.writes.Load(), n.readBytes.Load(), n.writeBytes.Load()}
}

// replyFrame is the daemon's analyze reply frame as it crosses the wire.
type replyFrame struct {
	Reply *daemon.AnalysisReply `json:"reply"`
}

// sink keeps standalone results alive so the compiler cannot drop the
// timed calls.
var sink int

// maxStandalone caps the distinct queries the standalone timings cycle
// through, which bounds the memory the captured reply frames take.
const maxStandalone = 4096

// standalone times single layers over the workload's first maxStandalone
// distinct queries, sharing budget equally, each at least one full pass.
func standalone(in *inputs, store *joza.ProfileStore, budget time.Duration, v map[string]float64) error {
	qs := in.distinct[:min(len(in.distinct), maxStandalone)]
	slice := budget / 7
	timeEach := func(fn func(c *check, i int)) float64 {
		calls := 0
		start := time.Now()
		for {
			for i := range qs {
				fn(&qs[i], i)
			}
			calls += len(qs)
			if el := time.Since(start); el >= slice {
				return float64(el.Nanoseconds()) / float64(calls)
			}
		}
	}
	ctx := context.Background()
	set := fragments.NewSet(in.fragments)

	toks := make([][]sqltoken.Token, len(qs))
	for i := range qs {
		toks[i] = sqltoken.MySQL.Lex(qs[i].query)
	}
	v["sqltoken.lex_ns"] = timeEach(func(c *check, _ int) { sink += len(sqltoken.MySQL.Lex(c.query)) })
	v["sqlparse.structure_key_ns"] = timeEach(func(c *check, _ int) { sink += len(sqlparse.StructureKeyDialect(sqltoken.MySQL, c.query)) })
	uncached := pti.New(set)
	v["pti.cover_ns"] = timeEach(func(c *check, i int) {
		res, _ := uncached.AnalyzeCtx(ctx, c.query, toks[i], nil) // cannot fail under context.Background
		sink += len(res.Reasons)
	})

	direct := daemon.NewDirect(pti.NewCached(pti.New(set), pti.CacheQueryAndStructure, in.cacheCap))
	direct.SetProfiles(store)
	replies := make([]*daemon.AnalysisReply, len(qs))
	frames := make([][]byte, len(qs))
	var tokenBytes, frameBytes int
	for i := range qs {
		r, err := direct.AnalyzeSiteContext(ctx, qs[i].site, qs[i].query)
		if err != nil {
			return fmt.Errorf("direct analyze: %w", err)
		}
		frame, err := json.Marshal(replyFrame{Reply: r})
		if err != nil {
			return err
		}
		tokens, err := json.Marshal(r.Tokens)
		if err != nil {
			return err
		}
		replies[i], frames[i] = r, frame
		tokenBytes += len(tokens)
		frameBytes += len(frame)
	}
	v["daemon.reply_tokens_frac"] = ratio(float64(tokenBytes), float64(frameBytes))
	var failed error
	v["daemon.server_analyze_ns"] = timeEach(func(c *check, _ int) {
		r, err := direct.AnalyzeSiteContext(ctx, c.site, c.query)
		if err != nil {
			failed = err
			return
		}
		sink += len(r.Tokens)
	})
	v["daemon.reply_encode_ns"] = timeEach(func(_ *check, i int) {
		frame, err := json.Marshal(replyFrame{Reply: replies[i]})
		if err != nil {
			failed = err
		}
		sink += len(frame)
	})
	v["daemon.reply_decode_ns"] = timeEach(func(_ *check, i int) {
		var f replyFrame
		if err := json.Unmarshal(frames[i], &f); err != nil {
			failed = err
			return
		}
		sink += len(f.Reply.Tokens)
	})
	v["daemon.token_stream_ns"] = timeEach(func(_ *check, i int) { sink += len(replies[i].TokenStream()) })
	return failed
}
