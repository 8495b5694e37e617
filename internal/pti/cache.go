package pti

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// lru is a minimal thread-safe LRU map from composite (dialect, string)
// keys to a value of type V. The query cache holds V = string, the
// entry's skeleton memo ("" until one is set); the structure cache holds
// V = []valuePin, the literal values a verdict depends on (nil for none).
//
// The map is keyed by the key's hash (lruKey.h), computed once by the
// caller. The entries whose keys share a hash hang off its bucket along
// their chain links, and a probe walks the chain comparing whole keys, so
// a collision costs a compare, never a wrong hit.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	n     int                     // entries
	items map[uint64]*lruEntry[V] // bucket heads by key hash
	head  *lruEntry[V]            // most recent
	tail  *lruEntry[V]            // least recent
}

// lruEntry is one cached key. The query cache's entry (V = string) fills
// the 64-byte size class exactly: key 24 B, value 16 B, prev/next 16 B,
// chain 8 B; the structure cache's (V = []valuePin) takes 72 B of the
// 80-byte class. Every field is read and written under the owning lru's
// mutex.
type lruEntry[V any] struct {
	key        lruKey
	val        V
	prev, next *lruEntry[V]
	// chain is the next entry in the bucket of this entry's key hash.
	chain *lruEntry[V]
}

// lruRef names an entry of a shard, so a later write to its value can
// take the shard's lock. The entry may be evicted meanwhile, and a put at
// capacity recycles the evicted entry for another key, so an evicted
// entry can become reachable again under a different key. A write through
// a ref must therefore check under the lock that the entry still holds
// the key the ref was taken for (SkeletonMemo.Set).
type lruRef[V any] struct {
	c *lru[V]
	e *lruEntry[V]
}

// init readies an empty lru holding at most capacity entries (1024 when
// capacity < 1).
func (c *lru[V]) init(capacity int) {
	if capacity < 1 {
		capacity = 1024
	}
	c.cap = capacity
	c.items = make(map[uint64]*lruEntry[V], capacity)
}

// find returns the entry of k, or nil.
func (c *lru[V]) find(k lruKey) *lruEntry[V] {
	e := c.items[k.h]
	for e != nil && e.key != k {
		e = e.chain
	}
	return e
}

// getBytes returns the value of the key whose string is key and hash h,
// and marks it most recent. The entries of a bucket share its hash, so
// only the strings compare.
func (c *lru[V]) getBytes(h uint64, key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[h]
	for e != nil && e.key.key != string(key) {
		e = e.chain
	}
	if e == nil {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// get returns the value of k and a ref to its entry, and marks it most
// recent.
func (c *lru[V]) get(k lruKey) (V, lruRef[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(k)
	if e == nil {
		var zero V
		return zero, lruRef[V]{}, false
	}
	c.moveToFront(e)
	return e.val, lruRef[V]{c: c, e: e}, true
}

// put sets the value of k and marks it most recent. A new key at
// capacity evicts the least recent entry and takes it over, so a cache
// that is full allocates no entry (see lruRef for what that asks of a
// ref).
func (c *lru[V]) put(k lruKey, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.find(k); e != nil {
		e.val = val
		c.moveToFront(e)
		return
	}
	var e *lruEntry[V]
	if c.n < c.cap {
		e = new(lruEntry[V])
		c.n++
	} else {
		e = c.tail
		c.unlink(e)
		c.unchain(e)
	}
	*e = lruEntry[V]{key: k, val: val, chain: c.items[k.h]}
	c.items[k.h] = e
	c.pushFront(e)
}

// unchain removes e from the bucket of its key's hash.
func (c *lru[V]) unchain(e *lruEntry[V]) {
	h := e.key.h
	if p := c.items[h]; p == e {
		if e.chain == nil {
			delete(c.items, h)
		} else {
			c.items[h] = e.chain
		}
	} else {
		for p.chain != e {
			p = p.chain
		}
		p.chain = e.chain
	}
	e.chain = nil
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *lru[V]) pushFront(e *lruEntry[V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lru[V]) moveToFront(e *lruEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// SkeletonMemo is the query-skeleton memo of one query-cache entry, which
// AnalyzeBuf hands out on a query-cache hit. The skeleton is a function
// of the entry's key, (dialect, query) — profile.SkeletonDialect — so a
// warm sited check can look its skeleton up without lexing. The zero
// value holds no entry: Skeleton returns "" and Set does nothing.
type SkeletonMemo struct {
	ref lruRef[string]
	// key is the entry's key at the hit; Set writes only while the entry
	// still holds it.
	key      lruKey
	skeleton string
}

// Skeleton returns the memoized skeleton, read under the shard's lock at
// the hit; "" when the entry held none.
func (m *SkeletonMemo) Skeleton() string { return m.skeleton }

// Set memoizes skeleton on the entry unless it already holds one, or no
// longer holds the hit query: an entry evicted since the hit may have
// been recycled for another query, whose memo it must not take. The
// caller must pass the entry's skeleton: the profile skeleton of the hit
// query under the cache's dialect.
func (m *SkeletonMemo) Set(skeleton string) {
	if m.ref.e == nil || m.skeleton != "" {
		return
	}
	m.ref.c.mu.Lock()
	if e := m.ref.e; e.val == "" && e.key == m.key {
		e.val = skeleton
	}
	m.ref.c.mu.Unlock()
	m.skeleton = skeleton
}

// CacheMode selects which PTI caches a Cached analyzer uses, matching the
// configurations of Table V.
type CacheMode int

// Cache modes.
const (
	// CacheNone disables caching: every query is fully analyzed.
	CacheNone CacheMode = iota + 1
	// CacheQuery caches verdicts of exact query strings.
	CacheQuery
	// CacheQueryAndStructure additionally caches verdicts keyed by the
	// query's token skeleton, covering dynamic data values.
	CacheQueryAndStructure
)

// String returns the mode name.
func (m CacheMode) String() string {
	switch m {
	case CacheNone:
		return "no-cache"
	case CacheQuery:
		return "query-cache"
	case CacheQueryAndStructure:
		return "query+structure-cache"
	default:
		return "unknown"
	}
}

// CacheStats counts cache activity; read with the Snapshot method.
type CacheStats struct {
	QueryHits     uint64
	StructureHits uint64
	Misses        uint64
}

// Cached wraps an Analyzer with the PTI query cache and query-structure
// cache described in Sections IV-C and VI-A. Only safe verdicts are cached:
// attacks are rare, must always be fully re-analyzed for reporting, and
// caching them would let a poisoned entry suppress detection details.
//
// Both caches are sharded by key hash (one mutex per shard, GOMAXPROCS
// rounded to a power of two shards) so concurrent Analyze calls on a
// multicore host do not serialize on a single cache lock.
type Cached struct {
	analyzer *Analyzer
	mode     CacheMode
	dialect  sqltoken.Dialect
	queries  *shardedLRU[string]
	structs  *shardedLRU[[]valuePin]

	queryHits     atomic.Uint64
	structureHits atomic.Uint64
	misses        atomic.Uint64
}

// NewCached wraps analyzer with the given cache mode and per-cache capacity.
func NewCached(analyzer *Analyzer, mode CacheMode, capacity int) *Cached {
	c := &Cached{analyzer: analyzer, mode: mode, dialect: analyzer.Dialect()}
	nShards := defaultShardCount()
	if mode == CacheQuery || mode == CacheQueryAndStructure {
		c.queries = newShardedLRU[string](capacity, nShards)
	}
	if mode == CacheQueryAndStructure {
		c.structs = newShardedLRU[[]valuePin](capacity, nShards)
	}
	return c
}

// Mode returns the configured cache mode.
func (c *Cached) Mode() CacheMode { return c.mode }

// Dialect returns the SQL dialect the wrapped analyzer lexes under; cache
// entries are namespaced by it, and the daemon validates wire-request
// dialects against it.
func (c *Cached) Dialect() sqltoken.Dialect { return c.dialect }

// Set returns the fragment set the wrapped analyzer covers queries with.
func (c *Cached) Set() *fragments.Set { return c.analyzer.Set() }

// MaxQueryBytes returns the wrapped analyzer's query byte cap (0 for none).
func (c *Cached) MaxQueryBytes() int { return c.analyzer.maxQueryBytes }

// NumShards returns the shard count of the query cache (0 when caching is
// disabled).
func (c *Cached) NumShards() int {
	if c.queries == nil {
		return 0
	}
	return len(c.queries.shards)
}

// Analyze returns the PTI result for query, consulting the caches first.
// toks may be nil; it is only lexed when a full analysis requires it.
func (c *Cached) Analyze(query string, toks []sqltoken.Token) core.Result {
	res, _, _ := c.AnalyzeLazyCtx(context.Background(), query, toks, nil)
	return res
}

// AnalyzeLazyCtx is AnalyzeBuf lexing into a fresh slice and returning
// the result.
func (c *Cached) AnalyzeLazyCtx(ctx context.Context, query string, toks []sqltoken.Token, span *trace.Span) (core.Result, []sqltoken.Token, error) {
	var (
		buf []sqltoken.Token
		res core.Result
	)
	toks, err := c.AnalyzeBuf(ctx, query, toks, &buf, nil, span, &res)
	return res, toks, err
}

// AnalyzeBuf analyzes query with lazy lexing, decision tracing and
// cooperative cancellation, and writes the result into *res (not nil),
// which holds the zero Result on an error. toks may be nil, in which case
// the query is lexed only when the query cache misses — a query-cache hit
// costs one sharded map lookup and no lexing at all — and then once, for
// both the structure key and the cover. The returned token stream is the
// one the analysis used (nil when no lexing happened), so callers that
// also need tokens for NTI reuse this lex instead of running another.
//
// buf is the caller's token storage (not nil): a lex appends to
// (*buf)[:0] and leaves its stream in *buf, also when the analysis then
// fails, so storage reused across checks lexes without allocating and the
// caller always knows which tokens it holds. A query-cache hit leaves *buf
// alone and returns toks as given: storage that was not lexed into is
// never handed back as a lex.
//
// memo, when not nil, receives the hit entry's SkeletonMemo on a
// query-cache hit and is left alone otherwise: a structure-cache hit or a
// miss has no entry for the query, and a put never memoizes.
//
// When span is non-nil it records the cache outcome (query-hit,
// structure-hit, miss), the lazy-lex and fragment-cover durations, and
// the per-token cover evidence from the underlying analyzer; a nil span
// means no clock reads and no allocations. An already-canceled or expired
// ctx, or a query over the analyzer's byte cap, fails before any cache
// lookup; a cache miss runs the underlying analysis through its
// checkpoints. Cache hits never fail once past the entry checks. With
// context.Background() the checks are free.
func (c *Cached) AnalyzeBuf(ctx context.Context, query string, toks []sqltoken.Token, buf *[]sqltoken.Token, memo *SkeletonMemo, span *trace.Span, res *core.Result) ([]sqltoken.Token, error) {
	*res = core.Result{}
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// The cap is checked here, not only in the analyzer: a miss would
	// otherwise compute the structure key and lex the whole oversized
	// query before the analyzer refused it.
	if err := c.analyzer.checkQueryBytes(query); err != nil {
		return nil, err
	}
	var qkey lruKey
	if c.queries != nil {
		qkey = makeKey(c.dialect, query)
		if sk, ref, ok := c.queries.get(qkey); ok {
			if memo != nil {
				*memo = SkeletonMemo{ref: ref, key: qkey, skeleton: sk}
			}
			c.queryHits.Add(1)
			span.SetCacheOutcome(trace.CacheQueryHit)
			res.Analyzer = core.AnalyzerPTI
			return toks, nil
		}
	}
	// The structure key is injective only while no query byte can forge
	// its literal markers, so a query carrying a NUL skips the cache. The
	// key is built in pooled bytes, and becomes a string only to be put.
	var (
		structKey *[]byte
		structH   uint64
	)
	if c.structs != nil && strings.IndexByte(query, 0) < 0 {
		toks = c.lex(query, toks, buf, span)
		structKey = keyBufs.Get().(*[]byte)
		defer releaseKeyBuf(structKey)
		*structKey = sqlparse.AppendStructureKey((*structKey)[:0], query, toks)
		structH = bytesHash(c.dialect, *structKey)
		if pins, ok := c.structs.getBytes(structH, *structKey); ok && pinsHold(pins, toks) {
			c.structureHits.Add(1)
			span.SetCacheOutcome(trace.CacheStructureHit)
			// Promote into the exact-query cache for next time.
			if c.queries != nil {
				c.queries.put(qkey, "")
			}
			res.Analyzer = core.AnalyzerPTI
			return toks, nil
		}
	}
	c.misses.Add(1)
	if c.queries != nil || c.structs != nil {
		span.SetCacheOutcome(trace.CacheMiss)
	}
	toks = c.lex(query, toks, buf, span)
	var coverStart time.Time
	if span.Active() {
		coverStart = time.Now()
	}
	r, err := c.analyzer.AnalyzeCtx(ctx, query, toks, span)
	if err != nil {
		return nil, err
	}
	*res = r
	if span.Active() {
		span.PTICover(time.Since(coverStart))
	}
	if !res.Attack {
		if c.queries != nil {
			c.queries.put(qkey, "")
		}
		if structKey != nil {
			c.structs.put(lruKey{h: structH, key: string(*structKey)}, pinsFor(toks, res.Markings))
		}
	}
	return toks, nil
}

// keyBufs pools the miss path's structure-key bytes; a buffer grown past
// maxPooledKey is left to the collector.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKey = 64 << 10

func releaseKeyBuf(b *[]byte) {
	if cap(*b) <= maxPooledKey {
		keyBufs.Put(b)
	}
}

// lex returns toks, lexing query into *buf (see AnalyzeBuf) first when
// toks is nil.
func (c *Cached) lex(query string, toks []sqltoken.Token, buf *[]sqltoken.Token, span *trace.Span) []sqltoken.Token {
	if toks != nil {
		return toks
	}
	var lexStart time.Time
	if span.Active() {
		lexStart = time.Now()
	}
	toks = c.dialect.AppendLex((*buf)[:0], query)
	*buf = toks
	if span.Active() {
		span.Lex(time.Since(lexStart))
	}
	return toks
}

// valuePin requires the tok-th token of a query, a literal, to start with
// text (prefix), end with it (suffix), or equal it (whole). Queries with
// one structure key lex to the same token sequence, so a token index names
// the same literal in each of them.
type valuePin struct {
	tok  int
	side pinSide
	text string
}

type pinSide uint8

const (
	pinWhole pinSide = iota
	pinPrefix
	pinSuffix
)

// pinsFor returns the literal bytes a safe cover marks leans on — " LIMIT
// 5" covering LIMIT, or "LIKE '%" covering LIKE. The structure key blanks
// literal values (a string keeps its quote bytes), so the verdict holds
// only for same-structure queries whose literals carry those bytes; nil
// when the cover touches no blanked value. A marking reaching into a
// literal from before pins its prefix, one reaching out of it its suffix,
// one spanning it the whole. A fragment covering several critical tokens
// marks each with one span; runs of one span are walked once.
func pinsFor(toks []sqltoken.Token, marks []core.Marking) []valuePin {
	var pins []valuePin
	for j, m := range marks {
		if j > 0 && marks[j-1].Span == m.Span {
			continue
		}
		first := sort.Search(len(toks), func(i int) bool { return toks[i].End > m.Span.Start })
		for i := first; i < len(toks) && toks[i].Start < m.Span.End; i++ {
			t := toks[i]
			start, end := t.Start, t.End
			switch t.Kind {
			case sqltoken.KindNumber:
			case sqltoken.KindString:
				start++
				if !t.Unterminated {
					end--
				}
			default:
				continue
			}
			if m.Span.End <= start || end <= m.Span.Start {
				continue
			}
			pin := valuePin{tok: i, text: t.Text}
			switch {
			case m.Span.Start <= t.Start && m.Span.End < t.End:
				pin.side, pin.text = pinPrefix, t.Text[:m.Span.End-t.Start]
			case m.Span.Start > t.Start && m.Span.End >= t.End:
				pin.side, pin.text = pinSuffix, t.Text[m.Span.Start-t.Start:]
			}
			// Clone so the entry does not keep the whole query alive.
			pin.text = strings.Clone(pin.text)
			pins = append(pins, pin)
		}
	}
	return pins
}

// pinsHold reports whether a query lexed as toks carries every pinned
// literal byte.
func pinsHold(pins []valuePin, toks []sqltoken.Token) bool {
	for _, p := range pins {
		if p.tok >= len(toks) {
			return false
		}
		text := toks[p.tok].Text
		switch p.side {
		case pinPrefix:
			if !strings.HasPrefix(text, p.text) {
				return false
			}
		case pinSuffix:
			if !strings.HasSuffix(text, p.text) {
				return false
			}
		default:
			if text != p.text {
				return false
			}
		}
	}
	return true
}

// Stats returns a snapshot of cache counters.
func (c *Cached) Stats() CacheStats {
	return CacheStats{
		QueryHits:     c.queryHits.Load(),
		StructureHits: c.structureHits.Load(),
		Misses:        c.misses.Load(),
	}
}

// ShardStats returns per-shard hit/miss/occupancy counters for the query
// and structure caches (nil when the respective cache is disabled).
func (c *Cached) ShardStats() (query, structure []ShardStat) {
	if c.queries != nil {
		query = c.queries.stats()
	}
	if c.structs != nil {
		structure = c.structs.stats()
	}
	return query, structure
}
