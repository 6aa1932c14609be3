package mitigation

import (
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// Verdict is the cached per-flow decision the ingress hot path acts on.
type Verdict uint8

// Verdicts.
const (
	// VerdictAllow passes the frame to the host stack.
	VerdictAllow Verdict = iota
	// VerdictDrop discards the frame.
	VerdictDrop
)

var verdictNames = [2]string{"allow", "drop"}

// String renders the verdict label.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// flowKey is the 5-tuple the verdict cache is keyed by, packed for
// compare-by-value probing. Addresses are big-endian uint32s (the
// trace.Flow form); ports pack as srcPort<<16 | dstPort.
type flowKey struct {
	src, dst uint32
	ports    uint32
	proto    uint8
}

// entry is one verdict-cache slot (40 bytes on 64-bit platforms). rev ties
// the cached decision to the rule revision it was computed under, so any
// rule change invalidates every memoized verdict at once without touching
// the table.
type entry struct {
	key       flowKey
	verdict   Verdict
	live      bool
	rule      uint8 // ruleNone/ruleAddr/rulePrefix/ruleFlow attribution
	rev       uint32
	installed sim.Time
	expiry    sim.Time
}

// probeWindow bounds the linear probe: a lookup or insert inspects at most
// this many slots, so the hot path is O(1) with a hard constant.
const probeWindow = 8

// cacheAgeBounds buckets evicted/expired entry lifetimes in microseconds
// (10 ms .. 120 s). Ages are whole simulated-time integers, so histogram
// sums stay exactly reproducible.
var cacheAgeBounds = []float64{1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 3e7, 6e7, 1.2e8}

// verdictCache is a fixed-size, allocation-free open-addressing table of
// per-flow verdicts consulted on the NIC ingress hot path. All mutation
// happens on the owning domain's scheduler (packet arrivals and the
// deterministic sweep both run there), so partitioned campaigns replay
// byte-identically.
type verdictCache struct {
	entries []entry
	mask    uint32

	hits, misses       telemetry.Counter
	inserts, evictions telemetry.Counter
	expirations        telemetry.Counter
	age                *telemetry.Histogram
}

// newVerdictCache sizes the table to the next power of two >= capacity.
// The age histogram is supplied by the owner so a registry-exported
// instance and the cache observe through the same object.
func newVerdictCache(capacity int, age *telemetry.Histogram) *verdictCache {
	if capacity < probeWindow {
		capacity = probeWindow
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &verdictCache{
		entries: make([]entry, size),
		mask:    uint32(size - 1),
		age:     age,
	}
}

// hash mixes the 5-tuple with a splitmix64-style finalizer; the low bits
// index the table.
func (vc *verdictCache) hash(k flowKey) uint32 {
	x := uint64(k.src)<<32 | uint64(k.dst)
	x ^= uint64(k.ports)<<8 | uint64(k.proto)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// retire frees a slot, attributing the entry's lifetime to the age
// histogram and the given counter (expirations or evictions).
func (vc *verdictCache) retire(e *entry, now sim.Time, cause *telemetry.Counter) {
	e.live = false
	cause.Inc()
	vc.age.Observe(float64((now - e.installed) / sim.Microsecond))
}

// lookup returns the live entry for k under rule revision rev, or nil on a
// miss. Expired and stale-revision entries found on the probe path are
// retired in place (lazy aging; the sweep catches the rest).
func (vc *verdictCache) lookup(k flowKey, now sim.Time, rev uint32) *entry {
	idx := vc.hash(k)
	for i := uint32(0); i < probeWindow; i++ {
		e := &vc.entries[(idx+i)&vc.mask]
		if !e.live || e.key != k {
			continue
		}
		if e.expiry <= now || e.rev != rev {
			vc.retire(e, now, &vc.expirations)
			break
		}
		vc.hits.Inc()
		return e
	}
	vc.misses.Inc()
	return nil
}

// insert stores a verdict for k, attributed to rule kind rule, reusing the
// key's slot, then any dead slot in the probe window, then
// deterministically evicting the earliest-expiring entry. Always succeeds;
// returns the written entry.
func (vc *verdictCache) insert(k flowKey, v Verdict, rule uint8, rev uint32, now, expiry sim.Time) *entry {
	idx := vc.hash(k)
	var victim *entry
	for i := uint32(0); i < probeWindow; i++ {
		e := &vc.entries[(idx+i)&vc.mask]
		if e.live && e.key == k {
			victim = e
			break
		}
		if !e.live {
			if victim == nil || victim.live {
				victim = e
			}
			continue
		}
		if e.expiry <= now {
			vc.retire(e, now, &vc.expirations)
			if victim == nil || victim.live {
				victim = e
			}
			continue
		}
		if victim == nil || (victim.live && e.expiry < victim.expiry) {
			victim = e
		}
	}
	if victim.live && victim.key != k {
		vc.retire(victim, now, &vc.evictions)
	}
	vc.inserts.Inc()
	*victim = entry{key: k, verdict: v, live: true, rule: rule, rev: rev, installed: now, expiry: expiry}
	return victim
}

// sweep retires every expired or stale-revision entry — the deterministic
// aging pass the owning scheduler runs on a fixed simulated-time cadence.
func (vc *verdictCache) sweep(now sim.Time, rev uint32) {
	for i := range vc.entries {
		e := &vc.entries[i]
		if e.live && (e.expiry <= now || e.rev != rev) {
			vc.retire(e, now, &vc.expirations)
		}
	}
}

// size counts entries still live at now under revision rev.
func (vc *verdictCache) size(now sim.Time, rev uint32) int {
	n := 0
	for i := range vc.entries {
		e := &vc.entries[i]
		if e.live && e.expiry > now && e.rev == rev {
			n++
		}
	}
	return n
}

// CacheStats is a point-in-time snapshot of the verdict cache's counters,
// the scoreboard's cache panel.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	Expired   uint64 `json:"expired"`
}
