package pti

import (
	"container/list"
	"context"
	"fmt"
	"testing"
	"unsafe"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/sqltoken"
)

// ck builds the key of s under dialect d with a forced hash: one of two
// values, by the parity of the length of s, so the LRU's collision chains
// carry every probe. The dialect takes the low byte, as in makeKey.
func ck(d sqltoken.Dialect, s string) lruKey {
	return lruKey{h: uint64(len(s)%2)<<8 | uint64(d), key: s}
}

// checkLRU verifies the lru's structure: the recency list is doubly
// linked and holds n entries, every entry hangs in the bucket of its own
// hash, and the buckets chain exactly the listed entries.
func checkLRU[V any](t *testing.T, c *lru[V]) {
	t.Helper()
	listed := make(map[*lruEntry[V]]bool)
	var prev *lruEntry[V]
	for e := c.head; e != nil; e = e.next {
		if e.prev != prev {
			t.Fatalf("entry %q: prev link broken", e.key.key)
		}
		listed[e] = true
		prev = e
	}
	if prev != c.tail {
		t.Fatal("tail is not the last listed entry")
	}
	if len(listed) != c.n {
		t.Fatalf("list holds %d entries, n = %d", len(listed), c.n)
	}
	chained := 0
	for h, e := range c.items {
		if e == nil {
			t.Fatalf("bucket %d is empty but present", h)
		}
		for ; e != nil; e = e.chain {
			if e.key.h != h {
				t.Fatalf("entry %q in bucket %d, hashes to %d", e.key.key, h, e.key.h)
			}
			if !listed[e] {
				t.Fatalf("entry %q chained but not listed", e.key.key)
			}
			chained++
		}
	}
	if chained != c.n {
		t.Fatalf("buckets chain %d entries, n = %d", chained, c.n)
	}
}

// TestLRUCollisionChains forces every key onto two hash values: get, a
// put that updates a chained entry, and evicting the head, the middle and
// the tail of a chain all keep the keys apart.
func TestLRUCollisionChains(t *testing.T) {
	my := sqltoken.MySQL
	a, b, c3, d := ck(my, "a"), ck(my, "b"), ck(my, "c"), ck(my, "dd") // a, b, c share a hash
	pgA := ck(sqltoken.Postgres, "a")                                  // same text, other dialect
	t.Run("get and update", func(t *testing.T) {
		c := newTestLRU[int](8)
		c.put(a, 1, "")
		c.put(b, 2, "")
		c.put(c3, 3, "")
		c.put(pgA, 4, "")
		for k, want := range map[lruKey]int{a: 1, b: 2, c3: 3, pgA: 4} {
			if got, ok := c.get(k, nil); !ok || got != want {
				t.Fatalf("get %v = %d, %v; want %d", k, got, ok, want)
			}
		}
		for _, k := range []lruKey{ck(my, "e"), d} {
			if _, ok := c.get(k, nil); ok {
				t.Fatalf("get %v hit a colliding key", k)
			}
		}
		c.put(b, 20, "")
		if got, ok := c.get(b, nil); !ok || got != 20 || c.len() != 4 {
			t.Fatalf("update: get b = %d, %v; len %d", got, ok, c.len())
		}
		if got, _ := c.get(a, nil); got != 1 {
			t.Fatalf("update of b changed a to %d", got)
		}
		checkLRU(t, c)
	})
	// The chain of a, b, c is c → b → a (newest first). Touching the other
	// two leaves the victim least recent; a put of d, on the other hash,
	// then evicts it.
	for _, tc := range []struct {
		name   string
		victim lruKey
		touch  []lruKey
	}{
		{"chain head", c3, []lruKey{a, b}},
		{"chain middle", b, []lruKey{a, c3}},
		{"chain tail", a, []lruKey{b, c3}},
	} {
		t.Run("evict "+tc.name, func(t *testing.T) {
			c := newTestLRU[int](3)
			c.put(a, 1, "")
			c.put(b, 2, "")
			c.put(c3, 3, "")
			for _, k := range tc.touch {
				c.get(k, nil)
			}
			putAdmitted(c, d, 4, "")
			checkLRU(t, c)
			if _, ok := c.get(tc.victim, nil); ok {
				t.Fatalf("%v survived eviction", tc.victim)
			}
			for i, k := range append(tc.touch, d) {
				if _, ok := c.get(k, nil); !ok {
					t.Fatalf("key %d (%v) evicted instead of %v", i, k, tc.victim)
				}
			}
			if c.len() != 3 {
				t.Fatalf("len = %d, want 3", c.len())
			}
		})
	}
}

// TestLRUSecondSightingAdmission pins the admission rule of a full lru: a
// new key's first sighting is turned away and evicts nothing; its second
// evicts the least recent entry and takes it over; a put to a key the lru
// holds always updates it; and the ghost is allocated once, when a put
// first finds the lru full, after which churn allocates nothing.
func TestLRUSecondSightingAdmission(t *testing.T) {
	c := newTestLRU[int](2)
	a, b, x := mk("a"), mk("b"), mk("x")
	c.put(a, 1, "")
	c.put(b, 2, "")
	if c.ghost != nil {
		t.Fatal("the ghost was allocated before the lru filled")
	}
	entryA, entryB := c.tail, c.head

	c.put(x, 3, "")
	if _, ok := c.get(x, nil); ok || c.head != entryB || c.tail != entryA || c.len() != 2 || c.rejected != 1 {
		t.Fatalf("first sighting of x: present %v, %d entries, %d rejected, order changed %v",
			ok, c.len(), c.rejected, c.head != entryB || c.tail != entryA)
	}
	if len(c.ghost) != 2 {
		t.Fatalf("ghost of %d slots for 2 entries, want 2", len(c.ghost))
	}
	checkLRU(t, c)

	c.put(x, 3, "")
	if got, ok := c.get(x, nil); !ok || got != 3 || c.head != entryA || c.rejected != 1 {
		t.Fatalf("second sighting of x: get = %d, %v; took over the tail's entry %v; %d rejected",
			got, ok, c.head == entryA, c.rejected)
	}
	if _, ok := c.get(a, nil); ok {
		t.Fatal("the least recent entry, a, survived x's admission")
	}
	checkLRU(t, c)

	c.put(b, 20, "skeleton of b")
	if got, ok := c.get(b, nil); !ok || got != 20 || c.head != entryB || c.find(b).skeleton != "skeleton of b" || c.rejected != 1 {
		t.Fatalf("put to the held key b: get = %d, %v; %d rejected", got, ok, c.rejected)
	}

	ghost := &c.ghost[0]
	keys := make([]lruKey, 64)
	for i := range keys {
		keys[i] = mk(fmt.Sprint("churn ", i))
	}
	churn := func() {
		for _, k := range keys {
			c.put(k, 0, "")
		}
		for _, k := range keys {
			putAdmitted(c, k, 0, "")
		}
	}
	churn() // also lets the map settle on its size
	if n := testing.AllocsPerRun(50, churn); n != 0 {
		t.Errorf("churning a full lru allocates %.1f times per run, want 0", n)
	}
	if &c.ghost[0] != ghost {
		t.Error("the ghost was reallocated")
	}
	checkLRU(t, c)
}

// TestSkeletonMemoRecycledEntry: a put at capacity reuses the evicted
// entry, so a memo taken before the eviction names an entry that now
// holds another key. The recycled entry must not hand out the evicted
// key's skeleton, and the stale memo's Set must leave the new key's memo
// empty. Once the memo's own key holds the entry again, the write is its
// own and lands. Query entries and structure entries (probed by bytes, as
// a structure hit does) behave alike.
func TestSkeletonMemoRecycledEntry(t *testing.T) {
	t.Run("query entry", func(t *testing.T) {
		c := newTestLRU[struct{}](1)
		checkRecycledMemo(t, c, func(k lruKey) (m SkeletonMemo, ok bool) {
			_, ok = c.get(k, &m)
			return m, ok
		})
	})
	t.Run("structure entry", func(t *testing.T) {
		c := newTestLRU[[]valuePin](1)
		checkRecycledMemo(t, c, func(k lruKey) (m SkeletonMemo, ok bool) {
			_, ok = c.getBytes(k.h, []byte(k.key), &m)
			return m, ok
		})
	})
}

// checkRecycledMemo runs TestSkeletonMemoRecycledEntry on the one-entry
// lru c, whose hits hit returns with the memo they hand out.
func checkRecycledMemo[V any](t *testing.T, c *lru[V], hit func(lruKey) (SkeletonMemo, bool)) {
	t.Helper()
	var val V
	a, b := ck(sqltoken.MySQL, "a"), ck(sqltoken.MySQL, "b")
	skeleton := func(k lruKey) (string, bool) {
		m, ok := hit(k)
		return m.Skeleton(), ok
	}
	c.put(a, val, "")
	filled, ok := hit(a)
	if !ok {
		t.Fatal("a missing")
	}
	filled.Set("skeleton of a")
	if sk, _ := skeleton(a); sk != "skeleton of a" {
		t.Fatalf("a's memo = %q after Set, want a's skeleton", sk)
	}
	putAdmitted(c, b, val, "")
	if sk, ok := skeleton(b); !ok || sk != "" {
		t.Fatalf("b in a's recycled entry: memo %q (present %v), want empty", sk, ok)
	}

	putAdmitted(c, a, val, "")
	stale, _ := hit(a)
	again := stale // an unwritten copy, for when a holds the entry again
	putAdmitted(c, b, val, "")
	if stale.slot != &c.head.skeleton {
		t.Fatal("the put at capacity did not reuse the evicted entry")
	}
	stale.Set("skeleton of a")
	if sk, ok := skeleton(b); !ok || sk != "" {
		t.Fatalf("b's memo = %q (present %v) after a stale Set, want empty", sk, ok)
	}
	if stale.Skeleton() != "skeleton of a" {
		t.Fatalf("the memo serves %q to its own check, want a's skeleton", stale.Skeleton())
	}

	putAdmitted(c, a, val, "")
	again.Set("skeleton of a")
	if sk, _ := skeleton(a); sk != "skeleton of a" {
		t.Fatalf("a back in the memo's entry: memo %q, want a's skeleton", sk)
	}
}

// TestQueryCacheEntrySize pins the query-cache entry in the 64-byte size
// class.
func TestQueryCacheEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(lruEntry[struct{}]{}); n > 64 {
		t.Fatalf("query-cache entry is %d bytes, want at most 64", n)
	}
}

// TestSkeletonMemoSize pins the memo a hit copies into the check's
// State at 64 bytes, which the compiler still copies inline.
func TestSkeletonMemoSize(t *testing.T) {
	if n := unsafe.Sizeof(SkeletonMemo{}); n > 64 {
		t.Fatalf("SkeletonMemo is %d bytes, want at most 64", n)
	}
}

// TestDialectsFitKeyByte checks that every dialect fits the low byte of
// a key's hash, so keys under two dialects never compare equal.
func TestDialectsFitKeyByte(t *testing.T) {
	for _, d := range sqltoken.Dialects() {
		if d < 0 || d > 0xff {
			t.Fatalf("dialect %s is %d, outside the key's dialect byte", d, int(d))
		}
		if k := makeKey(d, "SELECT 1"); k.h&0xff != uint64(d) {
			t.Fatalf("key under %s carries dialect byte %d", d, k.h&0xff)
		}
	}
}

// modelLRU is the reference: a recency list and a map from key to list
// element, with no hashing of its own. Each entry has an id, which a new
// key at capacity takes over from the entry it evicts, as the lru reuses
// the evicted entry; a memo names its entry by that id. Its admission
// ghost is a map from the lru's ghost slot (ghostSlot) to the tag that
// waits there.
type modelLRU struct {
	cap      int
	order    *list.List // of *modelEntry, most recent first
	items    map[lruKey]*list.Element
	ids      int
	ghost    map[int]uint32
	rejected uint64
}

type modelEntry struct {
	key lruKey
	val string // the skeleton memo
	id  int
}

func (m *modelLRU) get(k lruKey) (*modelEntry, bool) {
	el, ok := m.items[k]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*modelEntry), true
}

// put memoizes val on k's entry unless it holds a memo, and returns its
// entry's id and whether the entry is new or recycled; admitted is false
// when the model is full and turns k away, k's first sighting since its
// slot last held its tag.
func (m *modelLRU) put(k lruKey, val string) (id int, fresh, admitted bool) {
	if el, ok := m.items[k]; ok {
		if e := el.Value.(*modelEntry); e.val == "" {
			e.val = val
		}
		m.order.MoveToFront(el)
		return el.Value.(*modelEntry).id, false, true
	}
	if m.order.Len() < m.cap {
		id = m.ids
		m.ids++
	} else {
		slot, tag := ghostSlot(k.h, ceilPow2(m.cap))
		if m.ghost[slot] != tag {
			m.ghost[slot] = tag
			m.rejected++
			return 0, false, false
		}
		delete(m.ghost, slot)
		last := m.order.Back()
		m.order.Remove(last)
		delete(m.items, last.Value.(*modelEntry).key)
		id = last.Value.(*modelEntry).id
	}
	m.items[k] = m.order.PushFront(&modelEntry{key: k, val: val, id: id})
	return id, true, true
}

// setMemo is SkeletonMemo.Set on the model: a memo taken from entry id
// while it held key with an empty memo writes skeleton only while the
// entry still holds key and no memo.
func (m *modelLRU) setMemo(id int, key lruKey, skeleton string) {
	for el := m.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*modelEntry); e.id == id && e.key == key && e.val == "" {
			e.val = skeleton
		}
	}
}

// FuzzLRUModel runs a byte-coded sequence of gets, puts and memo writes
// against the query cache's lru and the reference model: every get must
// agree, and after every operation the lru's recency order and memos
// must equal the model's, with each entry the same object the model's id
// names (so a put at capacity reuses the evicted entry), its count of
// turned-away puts must equal the model's, and its structure must hold.
// The first byte sets the capacity; each later byte is one operation on
// one of 16 keys of three lengths, which collide onto eight hash values,
// and so also onto ghost slots and tags: a put (high bit; bit 2 picks an
// empty memo or a skeleton, which a put to a memoized key leaves alone),
// a memo write through the memo of the latest hit (low three bits set),
// or a get, whose hit takes a memo. A memo whose entry was evicted and
// recycled for another key must leave that key's value alone.
func FuzzLRUModel(f *testing.F) {
	f.Add([]byte{2, 0x80, 0x88, 0x90, 0x00, 0x98, 0x08, 0x80})
	f.Add([]byte{0, 0x81, 0x82, 0x83, 0x84, 0x01, 0x85})
	f.Add([]byte{4, 0x80, 0x88, 0x90, 0x98, 0xa0, 0x10, 0x88, 0xa8, 0xb0, 0x00})
	// Recycled entries: a memo taken at a, a evicted and its entry reused
	// for b, then the write; and the same with a back in another entry.
	f.Add([]byte{0, 0x80, 0x00, 0x88, 0x07, 0x08})
	f.Add([]byte{1, 0x80, 0x88, 0x00, 0x90, 0x98, 0x80, 0x07, 0x00, 0x10, 0x18})
	// Second sightings: a full lru admits a key put twice in a row, and a
	// key whose tag another key's sighting overwrote only when it comes
	// back twice more; keys 0 and 8 share a hash, 0 and 2 a slot.
	f.Add([]byte{0, 0x80, 0x88, 0x88, 0x80, 0x90, 0x80, 0x80, 0x00, 0xc0, 0xc0, 0x40})
	f.Add([]byte{1, 0x80, 0x88, 0x90, 0x98, 0x90, 0x98, 0x98, 0x08, 0x10, 0x18})
	keys := make([]lruKey, 16)
	for i := range keys {
		// Bits 16 and 33 of the hash reach the ghost's slot and tag, so
		// the keys of one hash value share both and the others need not.
		keys[i] = ck(sqltoken.MySQL, fmt.Sprintf("%c%*s", 'a'+i, i%3, ""))
		keys[i].h |= uint64(i&1)<<16 | uint64(i>>1&1)<<33
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		capacity := 1 + int(ops[0]%6)
		c := newTestLRU[struct{}](capacity)
		m := &modelLRU{cap: capacity, order: list.New(), items: make(map[lruKey]*list.Element), ghost: make(map[int]uint32)}
		entries := make(map[int]*lruEntry[struct{}]) // model id -> the lru's entry
		var (
			memo   SkeletonMemo
			memoID int
		)
		for i, op := range ops[1:] {
			k := keys[(op>>3)&15]
			switch {
			case op&0x80 != 0:
				val := ""
				if op&0x04 != 0 {
					val = fmt.Sprint("skeleton ", i)
				}
				c.put(k, struct{}{}, val)
				id, fresh, admitted := m.put(k, val)
				if !admitted {
					break
				}
				if e, seen := entries[id]; fresh && seen && e != c.head {
					t.Fatalf("op %d: put of %v at capacity allocated an entry instead of reusing the evicted one", i, k)
				}
				entries[id] = c.head
			case op&0x07 == 0x07:
				// Set writes only through a memo taken empty, and once.
				if memo.slot != nil && memo.Skeleton() == "" {
					m.setMemo(memoID, memo.key, fmt.Sprint("memo ", i))
				}
				memo.Set(fmt.Sprint("memo ", i))
			default:
				var hit SkeletonMemo
				_, ok := c.get(k, &hit)
				got := hit.Skeleton()
				want, wantOK := m.get(k)
				if ok != wantOK || ok && got != want.val {
					t.Fatalf("op %d: get %v = %q, %v; model %+v, %v", i, k, got, ok, want, wantOK)
				}
				if ok {
					memo, memoID = hit, want.id
				}
			}
			checkLRU(t, c)
			e := c.head
			for el := m.order.Front(); el != nil; el, e = el.Next(), e.next {
				me := el.Value.(*modelEntry)
				if e == nil || e != entries[me.id] || e.key != me.key || e.skeleton != me.val {
					t.Fatalf("op %d: the lru differs from the model at %+v", i, me)
				}
			}
			if e != nil {
				t.Fatalf("op %d: lru holds more entries than the model", i)
			}
			if c.rejected != m.rejected {
				t.Fatalf("op %d: the lru turned %d puts away, the model %d", i, c.rejected, m.rejected)
			}
		}
	})
}

// BenchmarkCachedQueryHit times a warm PTI query-cache hit through
// AnalyzeBuf, the path a sited check takes: one hash, one shard probe. It
// allocates nothing.
func BenchmarkCachedQueryHit(b *testing.B) {
	c := NewCached(New(appFragments()), CacheQueryAndStructure, 1024)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	ctx := context.Background()
	var (
		buf  []sqltoken.Token
		memo SkeletonMemo
		res  core.Result
	)
	if _, err := c.AnalyzeBuf(ctx, q, nil, &buf, &memo, nil, &res); err != nil || res.Attack {
		b.Fatalf("warm-up: %+v, %v", res, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.AnalyzeBuf(ctx, q, nil, &buf, &memo, nil, &res)
	}
	if c.Stats().QueryHits < uint64(b.N) {
		b.Fatalf("%d query hits over %d checks", c.Stats().QueryHits, b.N)
	}
}

// BenchmarkCachedWriteChurn times the checks of a write-heavy stream
// through a full query+structure cache: one-shot comment INSERTs, each a
// structure hit whose query never recurs, alternate with reads of a
// working set half the cache's size. It reports the fraction of checks
// the query cache answered, which the one-shot promotions would cut if
// they evicted the reads.
func BenchmarkCachedWriteChurn(b *testing.B) {
	const capacity = 1024
	c := NewCached(New(fragments.NewSet(fuzzFragments)), CacheQueryAndStructure, capacity)
	reads := make([]string, capacity/2)
	for i := range reads {
		reads[i] = fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
	}
	// Four times the cache in distinct INSERTs, so an INSERT comes back
	// only after its sighting has long been overwritten.
	inserts := make([]string, 4*capacity)
	for i := range inserts {
		inserts[i] = fmt.Sprintf("INSERT INTO posts (title, body) VALUES (%d, 'comment %d')", i, i)
	}
	ctx := context.Background()
	var (
		buf []sqltoken.Token
		res core.Result
	)
	check := func(i int) {
		q := reads[i/2%len(reads)]
		if i%2 == 1 {
			q = inserts[i/2%len(inserts)]
		}
		if _, err := c.AnalyzeBuf(ctx, q, nil, &buf, nil, nil, &res); err != nil || res.Attack {
			b.Fatalf("%q: %+v, %v", q, res, err)
		}
	}
	for i := 0; i < 2*len(inserts); i++ {
		check(i)
	}
	before := c.Stats().QueryHits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Stats().QueryHits-before)/float64(b.N), "query-hits/op")
}
