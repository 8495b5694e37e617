package pti

import (
	"container/list"
	"context"
	"fmt"
	"testing"
	"unsafe"

	"joza/internal/core"
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
		c.put(a, 1)
		c.put(b, 2)
		c.put(c3, 3)
		c.put(pgA, 4)
		for k, want := range map[lruKey]int{a: 1, b: 2, c3: 3, pgA: 4} {
			if got, _, ok := c.get(k); !ok || got != want {
				t.Fatalf("get %v = %d, %v; want %d", k, got, ok, want)
			}
		}
		for _, k := range []lruKey{ck(my, "e"), d} {
			if _, _, ok := c.get(k); ok {
				t.Fatalf("get %v hit a colliding key", k)
			}
		}
		c.put(b, 20)
		if got, _, ok := c.get(b); !ok || got != 20 || c.len() != 4 {
			t.Fatalf("update: get b = %d, %v; len %d", got, ok, c.len())
		}
		if got, _, _ := c.get(a); got != 1 {
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
			c.put(a, 1)
			c.put(b, 2)
			c.put(c3, 3)
			for _, k := range tc.touch {
				c.get(k)
			}
			c.put(d, 4)
			checkLRU(t, c)
			if _, _, ok := c.get(tc.victim); ok {
				t.Fatalf("%v survived eviction", tc.victim)
			}
			for i, k := range append(tc.touch, d) {
				if _, _, ok := c.get(k); !ok {
					t.Fatalf("key %d (%v) evicted instead of %v", i, k, tc.victim)
				}
			}
			if c.len() != 3 {
				t.Fatalf("len = %d, want 3", c.len())
			}
		})
	}
}

// TestSkeletonMemoRecycledEntry: a put at capacity reuses the evicted
// entry, so a memo taken before the eviction names an entry that now
// holds another query. Set must leave that query's memo empty. Once the
// memo's own query holds the entry again, the write is its own and lands.
func TestSkeletonMemoRecycledEntry(t *testing.T) {
	c := newTestLRU[string](1)
	a, b := ck(sqltoken.MySQL, "a"), ck(sqltoken.MySQL, "b")
	c.put(a, "")
	sk, ref, ok := c.get(a)
	if !ok {
		t.Fatal("a missing")
	}
	memo := SkeletonMemo{ref: ref, key: a, skeleton: sk}
	c.put(b, "")
	if c.head != ref.e {
		t.Fatal("the put at capacity did not reuse the evicted entry")
	}
	memo.Set("skeleton of a")
	if got, _, ok := c.get(b); !ok || got != "" {
		t.Fatalf("b's memo = %q (present %v), want empty", got, ok)
	}
	if memo.Skeleton() != "skeleton of a" {
		t.Fatalf("the memo serves %q to its own check, want a's skeleton", memo.Skeleton())
	}

	c.put(a, "")
	again := SkeletonMemo{ref: ref, key: a}
	again.Set("skeleton of a")
	if got, _, _ := c.get(a); got != "skeleton of a" {
		t.Fatalf("a back in the memo's entry: memo %q, want a's skeleton", got)
	}
}

// TestQueryCacheEntrySize pins the query-cache entry in the 64-byte size
// class.
func TestQueryCacheEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(lruEntry[string]{}); n > 64 {
		t.Fatalf("query-cache entry is %d bytes, want at most 64", n)
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
// the evicted entry; a memo names its entry by that id.
type modelLRU struct {
	cap   int
	order *list.List // of *modelEntry, most recent first
	items map[lruKey]*list.Element
	ids   int
}

type modelEntry struct {
	key lruKey
	val string
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

// put sets k's value and returns its entry's id and whether the entry is
// new or recycled.
func (m *modelLRU) put(k lruKey, val string) (id int, fresh bool) {
	if el, ok := m.items[k]; ok {
		el.Value.(*modelEntry).val = val
		m.order.MoveToFront(el)
		return el.Value.(*modelEntry).id, false
	}
	if m.order.Len() < m.cap {
		id = m.ids
		m.ids++
	} else {
		last := m.order.Back()
		m.order.Remove(last)
		delete(m.items, last.Value.(*modelEntry).key)
		id = last.Value.(*modelEntry).id
	}
	m.items[k] = m.order.PushFront(&modelEntry{key: k, val: val, id: id})
	return id, true
}

// setMemo is SkeletonMemo.Set on the model: a memo taken from entry id
// while it held key with an empty value writes skeleton only while the
// entry still holds key and no value.
func (m *modelLRU) setMemo(id int, key lruKey, skeleton string) {
	for el := m.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*modelEntry); e.id == id && e.key == key && e.val == "" {
			e.val = skeleton
		}
	}
}

// FuzzLRUModel runs a byte-coded sequence of gets, puts and memo writes
// against the query cache's lru and the reference model: every get must
// agree, and after every operation the lru's recency order and values
// must equal the model's, with each entry the same object the model's id
// names (so a put at capacity reuses the evicted entry), and its
// structure must hold. The first byte sets the capacity; each later byte
// is one operation on one of 16 keys of three lengths, which collide onto
// two hash values: a put (high bit; bit 2 picks an empty value or a
// skeleton), a memo write through the memo of the latest hit (low three
// bits set), or a get, whose hit takes a memo. A memo whose entry was
// evicted and recycled for another key must leave that key's value alone.
func FuzzLRUModel(f *testing.F) {
	f.Add([]byte{2, 0x80, 0x88, 0x90, 0x00, 0x98, 0x08, 0x80})
	f.Add([]byte{0, 0x81, 0x82, 0x83, 0x84, 0x01, 0x85})
	f.Add([]byte{4, 0x80, 0x88, 0x90, 0x98, 0xa0, 0x10, 0x88, 0xa8, 0xb0, 0x00})
	// Recycled entries: a memo taken at a, a evicted and its entry reused
	// for b, then the write; and the same with a back in another entry.
	f.Add([]byte{0, 0x80, 0x00, 0x88, 0x07, 0x08})
	f.Add([]byte{1, 0x80, 0x88, 0x00, 0x90, 0x98, 0x80, 0x07, 0x00, 0x10, 0x18})
	keys := make([]lruKey, 16)
	for i := range keys {
		keys[i] = ck(sqltoken.MySQL, fmt.Sprintf("%c%*s", 'a'+i, i%3, ""))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		capacity := 1 + int(ops[0]%6)
		c := newTestLRU[string](capacity)
		m := &modelLRU{cap: capacity, order: list.New(), items: make(map[lruKey]*list.Element)}
		entries := make(map[int]*lruEntry[string]) // model id -> the lru's entry
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
				c.put(k, val)
				id, fresh := m.put(k, val)
				if e, seen := entries[id]; fresh && seen && e != c.head {
					t.Fatalf("op %d: put of %v at capacity allocated an entry instead of reusing the evicted one", i, k)
				}
				entries[id] = c.head
			case op&0x07 == 0x07:
				// Set writes only through a memo taken empty, and once.
				if memo.ref.e != nil && memo.Skeleton() == "" {
					m.setMemo(memoID, memo.key, fmt.Sprint("memo ", i))
				}
				memo.Set(fmt.Sprint("memo ", i))
			default:
				got, ref, ok := c.get(k)
				want, wantOK := m.get(k)
				if ok != wantOK || ok && got != want.val {
					t.Fatalf("op %d: get %v = %q, %v; model %+v, %v", i, k, got, ok, want, wantOK)
				}
				if ok {
					memo, memoID = SkeletonMemo{ref: ref, key: k, skeleton: got}, want.id
				}
			}
			checkLRU(t, c)
			e := c.head
			for el := m.order.Front(); el != nil; el, e = el.Next(), e.next {
				me := el.Value.(*modelEntry)
				if e == nil || e != entries[me.id] || e.key != me.key || e.val != me.val {
					t.Fatalf("op %d: the lru differs from the model at %+v", i, me)
				}
			}
			if e != nil {
				t.Fatalf("op %d: lru holds more entries than the model", i)
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
