package pti

import (
	"hash/maphash"
	"runtime"
	"sync/atomic"

	"joza/internal/sqltoken"
)

// lruKey is the composite cache key: the SQL dialect the verdict was
// computed under plus the query (or structure-skeleton) string. The
// dialect is part of the key, not a cache-level attribute, so one process
// hosting guards for several database backends can never serve a verdict
// cached under one dialect to a query arriving under another — the same
// bytes can lex to a different string/code boundary per dialect.
//
// h carries both the key's hash and its dialect: the string's maphash
// with the dialect in the low byte (see makeKey). It is computed once per
// probe, picks the shard and keys the shard's map, and it is what an
// evicted entry is unlinked by, so nothing hashes a key twice. Two keys
// are equal exactly when their dialects and strings are: the dialect is
// the low byte, and equal strings hash alike. Comparing h first also
// rejects a colliding entry before its string is read.
//
// A struct key keeps the lookup allocation-free: concatenating the dialect
// into the string would allocate on every hit-path probe, regressing the
// zero-alloc cached fast path.
type lruKey struct {
	h   uint64
	key string
}

// makeKey returns the key of s under dialect d. Every sqltoken dialect
// fits the low byte (TestDialectsFitKeyByte).
func makeKey(d sqltoken.Dialect, s string) lruKey {
	return lruKey{h: withDialect(maphash.String(shardSeed, s), d), key: s}
}

// bytesHash returns the h of the key whose string is b under dialect d:
// maphash.Bytes hashes a byte slice as maphash.String hashes its string.
func bytesHash(d sqltoken.Dialect, b []byte) uint64 {
	return withDialect(maphash.Bytes(shardSeed, b), d)
}

func withDialect(h uint64, d sqltoken.Dialect) uint64 { return h&^0xff | uint64(uint8(d)) }

// shardedLRU spreads an LRU cache over N independently locked shards,
// selected by key hash, so concurrent Cached.Analyze calls on different
// queries stop serializing on one mutex. N is GOMAXPROCS rounded up to a
// power of two (at least minShards, so sharding is exercised even on small
// machines), fixed at construction.
type shardedLRU[V any] struct {
	shards []lruShard[V]
	mask   uint64
}

// lruShard is one shard: its own lock (inside lru) plus lock-free hit and
// miss counters.
type lruShard[V any] struct {
	lru    lru[V]
	hits   atomic.Uint64
	misses atomic.Uint64
	// pad the shard to its own cache line region to avoid false sharing
	// between neighbouring shards' counters.
	_ [24]byte
}

const (
	minShards = 4
	maxShards = 256
)

// defaultShardCount returns the power-of-two shard count for this process.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < minShards {
		n = minShards
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newShardedLRU builds a sharded cache with total capacity split evenly
// across nShards shards (nShards must be a power of two).
func newShardedLRU[V any](capacity, nShards int) *shardedLRU[V] {
	if capacity < 1 {
		capacity = 1024
	}
	perShard := (capacity + nShards - 1) / nShards
	if perShard < 1 {
		perShard = 1
	}
	s := &shardedLRU[V]{
		shards: make([]lruShard[V], nShards),
		mask:   uint64(nShards - 1),
	}
	for i := range s.shards {
		s.shards[i].lru.init(perShard)
	}
	return s
}

// shardSeed is the process-wide seed of the key hash. maphash uses the hardware-accelerated
// runtime string hash, so hashing costs a few nanoseconds even for long
// query keys and never allocates.
var shardSeed = maphash.MakeSeed()

// shard returns the shard of the key hashed h, picked by the hash bits
// above the dialect byte.
func (s *shardedLRU[V]) shard(h uint64) *lruShard[V] {
	return &s.shards[(h>>8)&s.mask]
}

// get returns the value of k and a ref to its entry.
func (s *shardedLRU[V]) get(k lruKey) (V, lruRef[V], bool) {
	sh := s.shard(k.h)
	val, ref, ok := sh.lru.get(k)
	sh.count(ok)
	return val, ref, ok
}

// getBytes returns the value of the key whose string is key and hash h
// (bytesHash), so a probe that misses builds no string.
func (s *shardedLRU[V]) getBytes(h uint64, key []byte) (V, bool) {
	sh := s.shard(h)
	val, ok := sh.lru.getBytes(h, key)
	sh.count(ok)
	return val, ok
}

func (sh *lruShard[V]) count(hit bool) {
	if hit {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
}

func (s *shardedLRU[V]) put(k lruKey, val V) {
	s.shard(k.h).lru.put(k, val)
}

func (s *shardedLRU[V]) len() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].lru.len()
	}
	return total
}

// ShardStat is the activity of one cache shard.
type ShardStat struct {
	Hits    uint64
	Misses  uint64
	Entries uint64
}

// stats returns one ShardStat per shard.
func (s *shardedLRU[V]) stats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		out[i] = ShardStat{
			Hits:    s.shards[i].hits.Load(),
			Misses:  s.shards[i].misses.Load(),
			Entries: uint64(s.shards[i].lru.len()),
		}
	}
	return out
}
