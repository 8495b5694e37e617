package daemon

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/sqltoken"
)

// The verdict cache is the application-side query cache of the paper's
// deployment (Section IV-C): a HybridClient answers a check whose safe
// daemon reply it already holds without crossing the wire. NTI still runs
// in process on every check; only the daemon's half of the verdict is
// cached.
const (
	// leaseTerm bounds how long the cache answers without a daemon reply:
	// any successful reply renews the lease, and once a term passes
	// without one, every check crosses the wire until a reply renews it.
	leaseTerm = time.Second
	// verdictCacheCap is the cache's capacity, the Guard's default PTI
	// cache size.
	verdictCacheCap = 4096
	// verdictShards is the number of independently locked shards, so
	// concurrent hits on different queries share no lock.
	verdictShards    = 16
	verdictShardCap  = verdictCacheCap / verdictShards
	verdictGhostSize = verdictShardCap // a power of two
)

// verdictSeed seeds the hash that picks a query's shard and ghost slot.
var verdictSeed = maphash.MakeSeed()

// cachedReply is a safe daemon reply shared by every cached query that
// drew it, with the dialect and call site it answered for. Its reply
// holds no reasons and no trace, only the version and any profile
// evidence, and is never written after interning: hits hand it to the
// profile stage by pointer.
type cachedReply struct {
	dialect sqltoken.Dialect
	site    string
	reply   AnalysisReply
}

// replyKey interns cachedReply values: the few distinct (site, version,
// profile evidence) combinations stand for every cached query, so an
// entry costs one map slot.
type replyKey struct {
	dialect                          sqltoken.Dialect
	site, version, outcome, skeleton string
	profiled                         bool
}

// verdictCache maps (dialect, site, query) to the safe daemon reply for
// it. Every entry was filled at the snapshot version the cache holds, and
// hits are served only while the lease is live.
type verdictCache struct {
	shards [verdictShards]verdictShard

	// version is the snapshot version of every entry, nil before the
	// first reply and after a rollout flush. versionMu serializes changes
	// of it with the flush each one makes.
	version   atomic.Pointer[string]
	versionMu sync.Mutex

	lease lease

	// interned holds the shared replies, at most verdictCacheCap of them;
	// a flush or a full table starts it over.
	internMu sync.Mutex
	interned map[replyKey]*cachedReply

	flushes atomic.Uint64
}

// verdictShard is one shard: its entries, and the ghost tags of the keys
// it turned away while full. A query's first site keys it by the query
// text alone, which keeps a slot small; only a query that more sites
// issue spills its other sites into bySite.
type verdictShard struct {
	mu       sync.RWMutex
	entries  map[string]*cachedReply    // by query; nil until the first put
	bySite   map[siteQuery]*cachedReply // the other sites' entries; nil until needed
	ghost    []uint32                   // nil until the shard first fills
	rejected uint64                     // under mu
	hits     atomic.Uint64
	misses   atomic.Uint64
	// pad the shard to its own cache lines, so the hit counters of
	// neighbouring shards do not share one.
	_ [32]byte
}

// siteQuery keys an entry of a query more than one site issues.
type siteQuery struct{ site, query string }

func newVerdictCache() *verdictCache {
	c := &verdictCache{}
	c.lease.init(leaseTerm)
	return c
}

// get returns the cached reply for query from site under dialect d, or
// nil when the check must cross the wire: the lease has lapsed, the query
// is absent, or it was cached for another site or dialect. A hit reads
// no clock, allocates nothing and takes only its shard's read lock.
func (c *verdictCache) get(d sqltoken.Dialect, site, query string) *cachedReply {
	h := maphash.String(verdictSeed, query)
	sh := &c.shards[h%verdictShards]
	if !c.lease.live.Load() {
		sh.misses.Add(1)
		return nil
	}
	sh.mu.RLock()
	e := sh.entries[query]
	if (e == nil || e.site != site) && sh.bySite != nil {
		e = sh.bySite[siteQuery{site, query}]
	}
	sh.mu.RUnlock()
	if e == nil || e.site != site || e.dialect != d {
		sh.misses.Add(1)
		return nil
	}
	sh.hits.Add(1)
	return e
}

// put records a successful daemon reply for query from site: it renews
// the lease, flushes the cache when the reply's snapshot version differs
// from the entries', and stores the reply when it is safe. A reply that
// blocks, explains itself, learns or carries profile evidence for another
// site is never stored: the daemon must see every check that is not a
// plain pass.
func (c *verdictCache) put(d sqltoken.Dialect, site, query string, r *AnalysisReply) {
	if v := c.version.Load(); v == nil || *v != r.Version {
		c.setVersion(r.Version)
	}
	c.lease.renew()
	if r.Attack || len(r.Reasons) > 0 {
		return
	}
	if p := r.Profile; p != nil && (p.Attack || p.Outcome == "learned" || p.Detail != "" || p.Site != site) {
		return
	}
	e := c.intern(d, site, r)
	h := maphash.String(verdictSeed, query)
	sh := &c.shards[h%verdictShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A reply from another version changed the cache's since this one's
	// own check: storing it would bring a superseded verdict back.
	if v := c.version.Load(); v == nil || *v != r.Version {
		return
	}
	if sh.entries == nil {
		sh.entries = make(map[string]*cachedReply)
	}
	first, ok := sh.entries[query]
	if ok && first.site == site {
		sh.entries[query] = e
		return
	}
	sk := siteQuery{site, query}
	if _, ok := sh.bySite[sk]; ok {
		sh.bySite[sk] = e
		return
	}
	if len(sh.entries)+len(sh.bySite) >= verdictShardCap {
		if !sh.admit(h) {
			sh.rejected++
			return
		}
		sh.evict()
		first, ok = sh.entries[query]
	}
	if !ok {
		sh.entries[query] = e
		return
	}
	if sh.bySite == nil {
		sh.bySite = make(map[siteQuery]*cachedReply)
	}
	sh.bySite[sk] = e
}

// evict removes a random entry, a spilled one first: map iteration
// starts at a random slot. Must be called with mu held.
func (sh *verdictShard) evict() {
	for k := range sh.bySite {
		delete(sh.bySite, k)
		return
	}
	for q := range sh.entries {
		delete(sh.entries, q)
		return
	}
}

// admit reports whether the full shard may take the key hashed h: only
// when its tag waits in its ghost slot, which the admission clears.
// Otherwise the tag takes the slot, and the key gets in if it comes back
// before another key's tag overwrites it. This is the second-sighting
// doorkeeper of pti's caches, so a stream of one-shot INSERTs does not
// evict the working set. Must be called with mu held.
func (sh *verdictShard) admit(h uint64) bool {
	if sh.ghost == nil {
		sh.ghost = make([]uint32, verdictGhostSize)
	}
	// The low bits picked the shard; the slot and the tag come from the
	// bits above them.
	i, tag := int(h>>16)&(verdictGhostSize-1), uint32(h>>32)|1
	if sh.ghost[i] == tag {
		sh.ghost[i] = 0
		return true
	}
	sh.ghost[i] = tag
	return false
}

// intern returns the shared cachedReply for r's version and profile
// evidence from site under d.
func (c *verdictCache) intern(d sqltoken.Dialect, site string, r *AnalysisReply) *cachedReply {
	k := replyKey{dialect: d, site: site, version: r.Version}
	if p := r.Profile; p != nil {
		k.profiled, k.outcome, k.skeleton = true, p.Outcome, p.Skeleton
	}
	c.internMu.Lock()
	defer c.internMu.Unlock()
	if e := c.interned[k]; e != nil {
		return e
	}
	if c.interned == nil || len(c.interned) >= verdictCacheCap {
		c.interned = make(map[replyKey]*cachedReply)
	}
	e := &cachedReply{dialect: d, site: site, reply: AnalysisReply{Version: r.Version}}
	if k.profiled {
		e.reply.Profile = &ProfileReply{Outcome: k.outcome, Site: site, Skeleton: k.skeleton}
	}
	c.interned[k] = e
	return e
}

// setVersion makes v the version of the cache's entries, flushing every
// entry filled at another.
func (c *verdictCache) setVersion(v string) {
	c.versionMu.Lock()
	defer c.versionMu.Unlock()
	old := c.version.Load()
	if old != nil && *old == v {
		return
	}
	// The new version is in place before any shard empties, so a put
	// that raced this one either lands before its shard's flush or sees
	// the new version and stores nothing.
	c.version.Store(&v)
	if old != nil {
		c.flush()
	}
}

// flushRollout empties the cache after its transport committed a
// rollout: the entries' version is superseded, and the next reply sets
// the new one.
func (c *verdictCache) flushRollout() {
	c.versionMu.Lock()
	defer c.versionMu.Unlock()
	c.version.Store(nil)
	c.flush()
}

// flush empties every shard and the interned replies and counts one
// flush. Must be called with versionMu held.
func (c *verdictCache) flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries, sh.bySite = nil, nil
		sh.mu.Unlock()
	}
	c.internMu.Lock()
	c.interned = nil
	c.internMu.Unlock()
	c.flushes.Add(1)
}

// counts sums the cache's counters over its shards.
func (c *verdictCache) counts() (hits, misses, rejected, flushes, lapses uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		hits += sh.hits.Load()
		misses += sh.misses.Load()
		sh.mu.RLock()
		rejected += sh.rejected
		sh.mu.RUnlock()
	}
	return hits, misses, rejected, c.flushes.Load(), c.lease.lapses.Load()
}

// lease is the cache's staleness bound (Gray and Cheriton, "Leases",
// SOSP 1989): live holds while a reply came within the last term. A hit
// reads only live; a renewal reads the clock and arms the timer when it
// is idle; the timer clears live once a whole term has passed since the
// last renewal, or re-arms itself for the rest of the term. Every race
// between a renewal and an expiry ends with live cleared or the timer
// armed, never with live set and no timer to clear it: at worst one check
// crosses the wire needlessly.
type lease struct {
	term    time.Duration // fixed before first use; tests shorten it
	live    atomic.Bool
	armed   atomic.Bool
	renewed atomic.Int64 // time since epoch at the last renewal
	epoch   time.Time
	timer   *time.Timer
	lapses  atomic.Uint64
}

func (l *lease) init(term time.Duration) {
	l.term, l.epoch = term, time.Now()
	l.timer = time.AfterFunc(time.Hour, l.expire)
	l.timer.Stop()
}

// renew starts a new term.
func (l *lease) renew() {
	l.renewed.Store(int64(time.Since(l.epoch)))
	l.live.Store(true)
	if l.armed.CompareAndSwap(false, true) {
		l.timer.Reset(l.term)
	}
}

// expire runs when the timer fires.
func (l *lease) expire() {
	if left := time.Duration(l.renewed.Load()) + l.term - time.Since(l.epoch); left > 0 {
		l.timer.Reset(left)
		return
	}
	// Disarmed first: a renewal from here on re-arms the timer, and one
	// whose live store lands before the clear below loses only its term.
	l.armed.Store(false)
	if l.live.Swap(false) {
		l.lapses.Add(1)
	}
}

// stop releases the timer.
func (l *lease) stop() { l.timer.Stop() }
