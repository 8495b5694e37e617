package pti

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"joza/internal/sqltoken"
)

func TestDefaultShardCountPowerOfTwo(t *testing.T) {
	n := defaultShardCount()
	if n < minShards || n > maxShards {
		t.Fatalf("shard count %d outside [%d, %d]", n, minShards, maxShards)
	}
	if n&(n-1) != 0 {
		t.Fatalf("shard count %d is not a power of two", n)
	}
}

func TestShardedLRUBasics(t *testing.T) {
	// Per-shard capacity (32) is at least the number of inserted keys, so
	// no eviction can occur no matter how the seeded hash distributes the
	// keys across shards — the assertions below are seed-independent.
	s := newShardedLRU[[]valuePin](256, 8)
	if len(s.shards) != 8 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	for i := 0; i < 32; i++ {
		s.put(makeKey(sqltoken.MySQL, fmt.Sprintf("key-%d", i)), nil)
	}
	if s.len() != 32 {
		t.Errorf("len = %d, want 32", s.len())
	}
	for i := 0; i < 32; i++ {
		if _, _, ok := s.get(makeKey(sqltoken.MySQL, fmt.Sprintf("key-%d", i))); !ok {
			t.Errorf("key-%d missing", i)
		}
	}
	if _, _, ok := s.get(makeKey(sqltoken.MySQL, "absent")); ok {
		t.Error("absent key found")
	}
	var hits, misses uint64
	for _, st := range s.stats() {
		hits += st.Hits
		misses += st.Misses
	}
	if hits != 32 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 32/1", hits, misses)
	}
}

func TestShardedLRUDistributesKeys(t *testing.T) {
	s := newShardedLRU[[]valuePin](4096, 8)
	for i := 0; i < 4000; i++ {
		s.put(makeKey(sqltoken.MySQL, fmt.Sprintf("SELECT * FROM t WHERE id=%d", i)), nil)
	}
	occupied := 0
	for _, st := range s.stats() {
		if st.Entries > 0 {
			occupied++
		}
	}
	if occupied < 7 {
		t.Errorf("only %d/8 shards occupied; hash is not spreading keys", occupied)
	}
}

func TestShardedLRUCapacitySplit(t *testing.T) {
	// Total capacity is split across shards; inserting far more keys than
	// capacity must keep the total bounded by capacity (+rounding).
	s := newShardedLRU[[]valuePin](64, 8)
	for i := 0; i < 10000; i++ {
		s.put(makeKey(sqltoken.MySQL, fmt.Sprintf("key-%d", i)), nil)
	}
	if got := s.len(); got > 64 {
		t.Errorf("len = %d exceeds total capacity 64", got)
	}
}

func TestShardedLRUEvictionPerShard(t *testing.T) {
	// One-entry shards: any second key hashing to the same shard evicts
	// the first.
	s := newShardedLRU[[]valuePin](8, 8)
	s.put(makeKey(sqltoken.MySQL, "a"), nil)
	s.put(makeKey(sqltoken.MySQL, "b"), nil)
	if s.len() > 8 {
		t.Errorf("len = %d", s.len())
	}
}

func TestShardedLRUConcurrentChurn(t *testing.T) {
	// Tiny capacity forces constant eviction while goroutines hammer
	// overlapping key ranges; run under -race this exercises promote and
	// evict under contention.
	s := newShardedLRU[[]valuePin](32, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key-%d", (seed*13+i)%100)
				d := sqltoken.Dialect(seed % 3)
				if i%3 == 0 {
					s.put(makeKey(d, key), nil)
				} else {
					s.get(makeKey(d, key))
				}
			}
		}(g)
	}
	wg.Wait()
	if s.len() > 32 {
		t.Errorf("len = %d exceeds capacity", s.len())
	}
}

func TestCachedShardStats(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 256)
	if c.NumShards() < minShards {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i%10)
		c.Analyze(q, nil)
	}
	qs, ss := c.ShardStats()
	if len(qs) != c.NumShards() || len(ss) != c.NumShards() {
		t.Fatalf("shard stats lengths %d/%d, want %d", len(qs), len(ss), c.NumShards())
	}
	var hits, entries uint64
	for _, st := range qs {
		hits += st.Hits
		entries += st.Entries
	}
	if hits == 0 {
		t.Error("no query-shard hits recorded")
	}
	if entries == 0 {
		t.Error("no query-shard entries recorded")
	}
	// Shard stats and aggregate stats must agree on hit totals.
	if agg := c.Stats(); agg.QueryHits == 0 || hits < agg.QueryHits {
		t.Errorf("aggregate hits %d vs shard hits %d", agg.QueryHits, hits)
	}
}

func TestCachedNoCacheShardStats(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheNone, 16)
	if c.NumShards() != 0 {
		t.Errorf("NumShards = %d for no-cache", c.NumShards())
	}
	qs, ss := c.ShardStats()
	if qs != nil || ss != nil {
		t.Error("no-cache mode must report nil shard stats")
	}
}

func TestHashKeySpread(t *testing.T) {
	// Sanity: distinct realistic keys rarely collide in the shard bits.
	seen := make(map[uint64]int)
	for i := 0; i < 1024; i++ {
		seen[(makeKey(sqltoken.MySQL, fmt.Sprintf("SELECT %d", i)).h>>8)&7]++
	}
	for b := uint64(0); b < 8; b++ {
		if seen[b] == 0 {
			t.Errorf("bucket %d empty", b)
		}
	}
}

// TestShardedLRUDialectNamespaces pins the cross-dialect isolation
// property: the same key string stored under one dialect is invisible
// under another, so one process hosting guards for several database
// backends can never serve a cross-dialect cached verdict.
func TestShardedLRUDialectNamespaces(t *testing.T) {
	s := newShardedLRU[[]valuePin](256, 8)
	key := "SELECT * FROM t WHERE a = $q$x$q$"
	s.put(makeKey(sqltoken.MySQL, key), nil)
	if _, _, ok := s.get(makeKey(sqltoken.Postgres, key)); ok {
		t.Fatal("Postgres lookup served a MySQL-cached verdict")
	}
	if _, _, ok := s.get(makeKey(sqltoken.SQLite, key)); ok {
		t.Fatal("SQLite lookup served a MySQL-cached verdict")
	}
	if _, _, ok := s.get(makeKey(sqltoken.MySQL, key)); !ok {
		t.Fatal("MySQL entry lost")
	}
	// Same string under all three dialects: three independent entries.
	s.put(makeKey(sqltoken.Postgres, key), nil)
	s.put(makeKey(sqltoken.SQLite, key), nil)
	if got := s.len(); got != 3 {
		t.Fatalf("len = %d, want 3 independent entries", got)
	}
}

// TestCacheHitZeroAlloc pins the composite-key design goal: folding the
// dialect into the cache key must not add allocations to the query-cache
// hit path (a string-concatenation key would allocate on every probe).
func TestCacheHitZeroAlloc(t *testing.T) {
	c := NewCached(New(appFragments(), WithDialect(sqltoken.Postgres)), CacheQuery, 64)
	q := "SELECT * FROM records WHERE ID=1 LIMIT 5"
	c.Analyze(q, nil) // warm
	if n := testing.AllocsPerRun(200, func() {
		res, toks, _ := c.AnalyzeLazyCtx(context.Background(), q, nil, nil)
		if res.Attack || toks != nil {
			t.Fatal("expected cached safe verdict without lexing")
		}
	}); n != 0 {
		t.Errorf("query-cache hit allocates %.1f times per run, want 0", n)
	}
}

// TestCachedDialectIsolation drives the isolation end to end through
// Cached: a Postgres guard must not reuse a MySQL guard's verdict for the
// same bytes even when both wrap analyzers over the same fragments.
func TestCachedDialectIsolation(t *testing.T) {
	frags := appFragments()
	my := NewCached(New(frags), CacheQueryAndStructure, 64)
	pg := NewCached(New(frags, WithDialect(sqltoken.Postgres)), CacheQueryAndStructure, 64)

	q := "SELECT * FROM records WHERE ID=1 LIMIT 5"
	my.Analyze(q, nil)
	my.Analyze(q, nil) // warm: second call is a query-cache hit
	if st := my.Stats(); st.QueryHits == 0 {
		t.Fatalf("MySQL cache did not warm: %+v", st)
	}
	// The Postgres wrapper has its own cache instance; this test guards the
	// key discipline too: its miss path must key by (postgres, query).
	pg.Analyze(q, nil)
	if st := pg.Stats(); st.Misses == 0 {
		t.Fatalf("Postgres analyze did not record a miss: %+v", st)
	}
}
