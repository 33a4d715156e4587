package flowserv

import (
	"container/list"
	"sort"
	"sync"
)

// entry is one cached flow result: the artifact bytes exactly as the fresh
// run produced them, and the top-module name of the design they came from.
// Those are immutable after insertion — a cache hit serves the same byte
// slices the fresh run stored, which is what makes the cached-equals-fresh
// guarantee trivial to audit. digest is the cache's own bookkeeping.
type entry struct {
	key       string
	top       string
	artifacts map[string][]byte
	// digest is the request digest (request.go) the memo maps to this
	// entry, or "" when none does; guarded by cache.mu.
	digest string
}

// cache is the content-addressed result store: an LRU bounded by entry
// count. Keys are the (netlist content hash, canonical options) digests of
// request.go; the cross-request analogue of ctrlnet's ModSeq memoization.
//
// In front of it sits the memo, from a request digest to the entry an
// identical request resolved to, so that a byte-identical resubmission is
// served without building its design. The memo holds at most one digest
// per cached entry, the last recorded at put or at a content-path hit,
// and eviction drops it with its entry, so it never outgrows the cache.
type cache struct {
	mu      sync.Mutex
	max     int
	byKey   map[string]*list.Element // value: *entry
	memo    map[string]*list.Element // request digest -> its entry
	lru     *list.List               // front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

func newCache(maxEntries int) *cache {
	return &cache{max: maxEntries, byKey: map[string]*list.Element{}, memo: map[string]*list.Element{}, lru: list.New()}
}

// lookup returns the entry the memo maps digest to, counting a hit. A
// memo miss counts nothing: the submission goes on to get, which counts
// its hit or miss, so each submission is one lookup in /stats.
func (c *cache) lookup(digest string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.memo[digest]
	if !ok {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry), true
}

// get returns the entry for key, counting the hit or miss. A hit records
// digest in the memo, so the request's next identical submission skips
// the build.
func (c *cache) get(key, digest string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	c.remember(el, digest)
	return el.Value.(*entry), true
}

// put inserts a fresh result, evicting from the LRU tail past the bound,
// and records digest, the request's, in the memo. A concurrent duplicate
// insert (two identical jobs racing) keeps the first entry: both hold
// byte-identical artifacts by the flow's determinism guarantee, so which
// one wins is unobservable.
func (c *cache) put(e *entry, digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[e.key]
	if ok {
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(e)
		c.byKey[e.key] = el
	}
	c.remember(el, digest)
	for c.max > 0 && c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		old := tail.Value.(*entry)
		delete(c.byKey, old.key)
		delete(c.memo, old.digest)
		c.evicted++
	}
}

// remember makes digest the memo's one digest for the entry at el,
// dropping the one it replaces. The caller holds c.mu.
func (c *cache) remember(el *list.Element, digest string) {
	e := el.Value.(*entry)
	if digest == e.digest {
		return
	}
	delete(c.memo, e.digest)
	e.digest = digest
	c.memo[digest] = el
}

// CacheStats is the /stats cache section.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses, Evicted: c.evicted}
}

// artifactNames lists an artifact map's keys sorted, for stable JSON.
func artifactNames(m map[string][]byte) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
