package storage

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"corec/internal/scrub"
)

// Config tunes one server's tiered storage engine. The zero value is a
// memory-only engine with unlimited capacity — exactly the pre-tiering
// behaviour — so existing deployments are unaffected until Dir is set.
type Config struct {
	// MemBytes is the L1 budget. When resident bytes exceed it the spiller
	// demotes the lowest-utility-density entries to disk. <= 0 disables
	// spilling (memory is unbounded).
	MemBytes int64
	// Dir is the L2 segment directory. Empty disables the disk and remote
	// tiers entirely.
	Dir string
	// DiskBytes is the L2 live-byte budget; exceeding it uploads the
	// least recently touched disk entries to the remote tier. <= 0
	// disables pressure-driven uploads.
	DiskBytes int64
	// Prefetch enables the next-time-step prefetch pipeline.
	Prefetch bool
	// Remote is the L3 model. The cluster turns it into one shared
	// RemoteStore for all servers; nil disables the remote tier.
	Remote *RemoteConfig

	// The engine's tuning. No deployment sets it; this package's tests vary
	// it, and zero takes the default constant below.
	segmentBytes  int64   // roll the active segment past this size
	compactFrac   float64 // dead-byte fraction past which a retired segment is compacted
	spillWorkers  int     // background workers, each running spills, uploads and compactions
	spillQueue    int     // bound of the work queue (writers stall once it fills) and the prefetch queue
	prefetchDepth int     // upcoming cold keys one sequential-read observation stages
	prefetchMBps  float64 // prefetch read pacing (scrub.NewByteBucket): staging ahead never starves foreground I/O
}

const (
	defaultSegmentBytes  = 1 << 20
	defaultCompactFrac   = 0.5
	defaultSpillWorkers  = 2
	defaultSpillQueue    = 128
	defaultPrefetchDepth = 8
	defaultPrefetchMBps  = 64
)

func (c Config) withDefaults() Config {
	if c.segmentBytes <= 0 {
		c.segmentBytes = defaultSegmentBytes
	}
	if c.compactFrac <= 0 {
		c.compactFrac = defaultCompactFrac
	}
	if c.spillWorkers <= 0 {
		c.spillWorkers = defaultSpillWorkers
	}
	if c.spillQueue <= 0 {
		c.spillQueue = defaultSpillQueue
	}
	if c.prefetchDepth <= 0 {
		c.prefetchDepth = defaultPrefetchDepth
	}
	if c.prefetchMBps <= 0 {
		c.prefetchMBps = defaultPrefetchMBps
	}
	return c
}

// Stats is one engine's gauge and counter snapshot.
type Stats struct {
	MemObjects    int
	DiskObjects   int
	RemoteObjects int
	MemBytes      int64
	DiskBytes     int64 // live record bytes, not segment file sizes
	DiskDeadBytes int64
	RemoteBytes   int64

	Spills      int64 // records written by L1→L2 demotion
	Evictions   int64 // all L1 demotions, including clean no-I/O flips
	Uploads     int64 // L2→L3 promotions
	ColdReads   int64 // foreground gets served below L1
	DiskReads   int64
	RemoteReads int64

	PrefetchIssued  int64 // cold keys staged into L1 ahead of access
	PrefetchHits    int64 // foreground gets that landed on a staged key
	PrefetchDropped int64 // prefetch candidates dropped to a full queue

	BackpressureStalls int64 // writer stalls on the bounded spill queue
	Compactions        int64
	DiskErrors         int64
	RemoteFaults       int64

	// Open-time disk-scan results plus read-time quarantines.
	RestoredRecords    int64
	QuarantinedRecords int64
	TruncatedTails     int64
}

// Add sums o into s, field by field: the fleet-wide view of many engines.
func (s *Stats) Add(o Stats) {
	s.MemObjects += o.MemObjects
	s.DiskObjects += o.DiskObjects
	s.RemoteObjects += o.RemoteObjects
	s.MemBytes += o.MemBytes
	s.DiskBytes += o.DiskBytes
	s.DiskDeadBytes += o.DiskDeadBytes
	s.RemoteBytes += o.RemoteBytes
	s.Spills += o.Spills
	s.Evictions += o.Evictions
	s.Uploads += o.Uploads
	s.ColdReads += o.ColdReads
	s.DiskReads += o.DiskReads
	s.RemoteReads += o.RemoteReads
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchDropped += o.PrefetchDropped
	s.BackpressureStalls += o.BackpressureStalls
	s.Compactions += o.Compactions
	s.DiskErrors += o.DiskErrors
	s.RemoteFaults += o.RemoteFaults
	s.RestoredRecords += o.RestoredRecords
	s.QuarantinedRecords += o.QuarantinedRecords
	s.TruncatedTails += o.TruncatedTails
}

const tierNone Tier = -1

type entry struct {
	data  []byte
	size  int64
	tier  Tier
	clean Tier // while TierMem: tier holding a still-valid backing record
	loc   recordLoc
	sum   uint64 // remote manifest checksum (TierRemote entries)
	gen   uint64
	epoch int64
	seq   int
	freq  float64
	last  int64 // engine logical clock of last access

	owner      owner
	deleted    bool // delete deferred until the owner settles
	prefetched bool // resident because the prefetcher staged it
}

// owner names the party holding an entry. Only the holder may commit the
// entry to another tier or retire its records; a delete or re-put that
// finds the entry held leaves that to the holder's settle step.
type owner uint8

const (
	ownNone          owner = iota
	ownSpill               // an L1→L2 spill job is queued or running
	ownUpload              // an L2→L3 upload job is queued or running
	ownPrefetchQueue       // queued for prefetch; not held yet, anyone may take it
	ownPrefetch            // the prefetch worker is reading it
	ownSettle              // a writer is settling the records a re-put or delete retired
)

// held reports whether a job or writer holds e (a queued prefetch does not).
func (e *entry) held() bool { return e.owner != ownNone && e.owner != ownPrefetchQueue }

type jobKind int

const (
	jobSpill jobKind = iota
	jobUpload
	jobCompact
)

type job struct {
	kind jobKind
	key  string
	seg  int
}

// Tiered is the production storage engine. All index state lives under mu;
// disk and remote I/O (and their modelled delays) always happen outside it.
type Tiered struct {
	cfg    Config
	remote *RemoteStore
	ns     string
	disk   *diskTier

	mu       sync.Mutex
	entries  map[string]*entry
	epochs   map[int64][]string // arrival-ordered keys per time-step tag
	memBytes int64
	clock    int64

	// Sequential-read streak state for the prefetcher.
	streakEpoch int64
	streakSeq   int
	streakRun   int

	workCh chan job
	prefCh chan string
	pacer  *scrub.TokenBucket // prefetch bytes
	ctx    context.Context    // cancelled by Close
	stop   context.CancelFunc
	wg     sync.WaitGroup

	idleMu   sync.Mutex
	idleCond *sync.Cond
	inflight int

	compacting atomic.Bool
	closeOnce  sync.Once

	restore RestoreReport

	ctSpills, ctEvictions, ctUploads            atomic.Int64
	ctColdReads, ctDiskReads, ctRemoteReads     atomic.Int64
	ctPrefIssued, ctPrefHits, ctPrefDropped     atomic.Int64
	ctStalls, ctCompactions                     atomic.Int64
	ctQuarantined, ctDiskErrors, ctRemoteFaults atomic.Int64
}

// Open builds an engine from cfg. A non-empty Dir opens (and revalidates)
// the disk tier: every segment record's payload digest is checked, torn tails are
// truncated, rotten records quarantined, and the offset index rebuilt from
// the scan. remote is the cluster-shared L3 store (nil disables L3);
// namespace prefixes this engine's remote keys so servers never collide.
func Open(cfg Config, remote *RemoteStore, namespace string) (*Tiered, error) {
	cfg = cfg.withDefaults()
	t := &Tiered{
		cfg:         cfg,
		remote:      remote,
		ns:          namespace,
		entries:     make(map[string]*entry),
		epochs:      make(map[int64][]string),
		streakEpoch: -1,
	}
	t.ctx, t.stop = context.WithCancel(context.Background())
	t.idleCond = sync.NewCond(&t.idleMu)
	if cfg.Dir == "" {
		// Memory-only engine: no disk means nowhere to put remote
		// manifests either, so L3 is off and no workers run.
		t.remote = nil
		return t, nil
	}
	disk, idx, rep, err := openDisk(cfg.Dir, cfg.segmentBytes)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	t.restore = rep
	t.adoptRestored(idx)

	t.workCh = make(chan job, cfg.spillQueue)
	for i := 0; i < cfg.spillWorkers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	if cfg.Prefetch {
		t.prefCh = make(chan string, cfg.spillQueue)
		t.pacer = scrub.NewByteBucket(cfg.prefetchMBps * (1 << 20))
		t.wg.Add(1)
		go t.prefetchWorker()
	}
	t.wg.Add(1)
	go t.maintenance()
	return t, nil
}

// adoptRestored merges the open-time scan's index into the entry map,
// re-registering epoch tags in on-disk order so the prefetcher keeps
// working across a restart.
func (t *Tiered) adoptRestored(idx map[string]restoredEntry) {
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := idx[keys[i]], idx[keys[j]]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.loc.seg != b.loc.seg {
			return a.loc.seg < b.loc.seg
		}
		if a.loc.off != b.loc.off {
			return a.loc.off < b.loc.off
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		re := idx[k]
		if re.tier == TierRemote && t.remote == nil {
			// Manifest without a remote store: unreachable, drop it.
			continue
		}
		e := &entry{
			size:  re.size,
			tier:  re.tier,
			clean: tierNone,
			loc:   re.loc,
			sum:   re.sum,
			epoch: re.epoch,
			seq:   -1,
		}
		if re.epoch >= 0 {
			log := t.epochs[re.epoch]
			e.seq = len(log)
			t.epochs[re.epoch] = append(log, k)
		}
		t.entries[k] = e
	}
}

// Put stages an untagged payload. The engine keeps the slice; treat it as
// immutable afterwards (the staging convention everywhere in this repo).
func (t *Tiered) Put(key string, data []byte) { t.PutTagged(key, data, -1) }

// PutTagged stages a payload carrying its time-step tag, which drives
// sequential-step detection in the prefetcher. epoch < 0 means untagged.
func (t *Tiered) PutTagged(key string, data []byte, epoch int64) {
	size := int64(len(data))
	t.mu.Lock()
	t.clock++
	var locs []recordLoc
	var tomb, remoteDel bool
	e := t.entries[key]
	if e != nil {
		if e.held() {
			// A background job holds the entry: record state only; the job
			// settles the superseded on-disk records when it commits.
			if e.tier == TierMem {
				t.memBytes -= e.size
			}
		} else {
			locs, tomb, remoteDel = t.retireLocked(e)
			// Until the old records are settled the writer holds the entry
			// like a background job would, so no spill or upload of the new
			// value can land before the old copy's tombstone and remote
			// delete do — and be killed by them.
			e.owner = ownNone
			if tomb {
				e.owner = ownSettle
			}
		}
		e.gen++
		e.deleted = false
	} else {
		e = &entry{}
		t.entries[key] = e
	}
	e.data, e.size = data, size
	e.tier, e.clean = TierMem, tierNone
	e.prefetched = false
	e.epoch, e.seq = epoch, -1
	if epoch >= 0 {
		log := t.epochs[epoch]
		e.seq = len(log)
		t.epochs[epoch] = append(log, key)
	}
	e.freq++
	e.last = t.clock
	t.memBytes += size
	t.mu.Unlock()
	t.settleRetired(key, locs, tomb, remoteDel)
	t.demote(TierMem, true)
}

// retireLocked detaches e's current placement, returning the on-disk
// records to mark dead, whether a tombstone must be appended, and whether
// the remote copy must be deleted. Caller holds t.mu and is not a
// background job (held entries defer retirement to their holder).
func (t *Tiered) retireLocked(e *entry) (locs []recordLoc, tomb, remoteDel bool) {
	switch e.tier {
	case TierMem:
		t.memBytes -= e.size
		if e.clean != tierNone {
			locs = append(locs, e.loc)
			tomb = true
			remoteDel = e.clean == TierRemote
		}
	case TierDisk:
		locs = append(locs, e.loc)
		tomb = true
	case TierRemote:
		locs = append(locs, e.loc)
		tomb = true
		remoteDel = true
	}
	return locs, tomb, remoteDel
}

// settleRetired performs the I/O half of retirement outside t.mu. tomb
// says the caller holds the entry and superseded records exist: the
// key's tombstone is appended and, last, the entry released — finalizing a
// delete that was deferred to the owner meanwhile.
func (t *Tiered) settleRetired(key string, locs []recordLoc, tomb, remoteDel bool) {
	if t.disk != nil {
		for _, l := range locs {
			t.disk.markDead(l)
		}
		if tomb {
			t.appendTombstone(key)
		}
	}
	if remoteDel && t.remote != nil {
		t.remote.Delete(t.ns + key)
	}
	if !tomb {
		return
	}
	t.mu.Lock()
	if e := t.entries[key]; e != nil {
		e.owner = ownNone
		if e.deleted {
			delete(t.entries, key)
		}
	}
	t.mu.Unlock()
}

// appendTombstone reports whether the record is down (trivially so without
// a disk tier).
func (t *Tiered) appendTombstone(key string) bool {
	if t.disk == nil {
		return true
	}
	if _, err := t.disk.append(recDead, key, -1, nil); err != nil {
		t.ctDiskErrors.Add(1)
		return false
	}
	return true
}

// Delete drops a key from every tier. Crash safety: the tombstone record
// makes the delete durable, so a restart cannot resurrect the key.
func (t *Tiered) Delete(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.held() {
		// Deferred: the holder observes deleted, appends the
		// tombstone, and removes the entry when it settles.
		if e.tier == TierMem {
			t.memBytes -= e.size
			e.data = nil
		}
		e.deleted = true
		e.gen++
		t.mu.Unlock()
		return
	}
	locs, tomb, remoteDel := t.retireLocked(e)
	if tomb {
		// Records to settle: the entry stays, deleted and held, until the
		// tombstone is down, so a racing re-put cannot reach disk first.
		// Its bytes have left memBytes already, hence size 0.
		e.data, e.size = nil, 0
		e.deleted, e.owner = true, ownSettle
		e.gen++
	} else {
		delete(t.entries, key)
	}
	t.mu.Unlock()
	t.settleRetired(key, locs, tomb, remoteDel)
}

// Get returns a key's payload, promoting cold entries into L1 and feeding
// the prefetcher's sequential-read detector.
func (t *Tiered) Get(key string) ([]byte, bool) { return t.fetch(key, true) }

// Peek returns a key's payload without touching heat, promotion or
// prefetch state — the read the scrubber and checkpointer use, so
// background verification never perturbs placement.
func (t *Tiered) Peek(key string) ([]byte, bool) { return t.fetch(key, false) }

func (t *Tiered) fetch(key string, touch bool) ([]byte, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		t.mu.Lock()
		e := t.entries[key]
		if e == nil || e.deleted {
			t.mu.Unlock()
			return nil, false
		}
		if touch {
			t.clock++
			e.freq++
			e.last = t.clock
		}
		tier, loc, gen, sum := e.tier, e.loc, e.gen, e.sum
		ep, seq := e.epoch, e.seq
		if tier == TierMem {
			data := e.data
			if touch && e.prefetched {
				e.prefetched = false
				t.ctPrefHits.Add(1)
			}
			t.mu.Unlock()
			if touch {
				t.observeRead(ep, seq)
			}
			return data, true
		}
		t.mu.Unlock()
		if touch {
			t.ctColdReads.Add(1)
		}
		var data []byte
		var err error
		switch tier {
		case TierDisk:
			data, _, err = t.disk.read(loc)
			if err == errSegGone {
				continue // compaction moved the record; re-resolve
			}
			if err == errBadPayload || err == errBadHeader {
				t.quarantine(key, gen, loc)
				return nil, false
			}
			if err != nil {
				t.ctDiskErrors.Add(1)
				return nil, false
			}
			t.ctDiskReads.Add(1)
		case TierRemote:
			data, err = t.remoteFetch(key, gen, loc, sum)
			if err != nil {
				return nil, false
			}
			t.ctRemoteReads.Add(1)
		}
		if touch {
			t.install(key, gen, data, tier, false, false)
			t.observeRead(ep, seq)
		}
		return data, true
	}
	return nil, false
}

// remoteFetch downloads and verifies a remote object against its manifest
// checksum; a mismatch means the remote copy rotted and is quarantined.
func (t *Tiered) remoteFetch(key string, gen uint64, manifest recordLoc, sum uint64) ([]byte, error) {
	data, err := t.remote.Get(t.ns + key)
	if err != nil {
		t.ctRemoteFaults.Add(1)
		return nil, err
	}
	if scrub.Checksum(data) != sum {
		t.quarantine(key, gen, manifest)
		return nil, errBadPayload
	}
	return data, nil
}

// quarantine drops an entry whose stored bytes failed verification. The
// server-level scrubber restores the shard from its stripe afterwards.
func (t *Tiered) quarantine(key string, gen uint64, loc recordLoc) {
	t.ctQuarantined.Add(1)
	t.mu.Lock()
	e := t.entries[key]
	match := e != nil && e.gen == gen
	if match {
		if e.tier == TierMem {
			t.memBytes -= e.size
		}
		delete(t.entries, key)
	}
	t.mu.Unlock()
	if match && t.disk != nil {
		t.disk.markDead(loc)
	}
}

// install promotes fetched bytes into L1, reporting whether it committed.
// Owned jobs (the prefetcher) hold the entry and must settle superseded
// records themselves on a false return; unowned promotion (a foreground
// get) simply backs off if anything moved.
func (t *Tiered) install(key string, gen uint64, data []byte, from Tier, prefetched, owned bool) bool {
	t.mu.Lock()
	e := t.entries[key]
	stale := e == nil || e.gen != gen || e.deleted
	if stale || (!owned && (e.held() || e.tier != from)) {
		t.mu.Unlock()
		return false
	}
	e.data = data
	e.tier = TierMem
	e.clean = from
	e.prefetched = prefetched
	e.owner = ownNone
	if prefetched {
		// Staged ahead of its read: refresh heat so the spiller does not
		// immediately evict what the prefetcher just promoted.
		e.freq++
		e.last = t.clock
	}
	t.memBytes += e.size
	t.mu.Unlock()
	if prefetched {
		t.ctPrefIssued.Add(1)
	}
	t.demote(TierMem, !owned)
	return true
}

// settleStale is a background job's abort path: the entry changed (or was
// deleted) while the job held it. The job kills the records it knows about,
// appends the key's tombstone, finalizes a deferred delete and releases
// the entry. Holding the entry guarantees no newer record for the key was
// appended in between, so the tombstone cannot kill fresh data.
func (t *Tiered) settleStale(key string, locs []recordLoc, remoteDel bool) {
	t.settleRetired(key, locs, true, remoteDel)
	t.demote(TierMem, false)
}

// Has reports whether the key exists in any tier (no I/O).
func (t *Tiered) Has(key string) bool {
	t.mu.Lock()
	e := t.entries[key]
	ok := e != nil && !e.deleted
	t.mu.Unlock()
	return ok
}

// TierOf reports which tier currently holds the key's bytes.
func (t *Tiered) TierOf(key string) (Tier, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || e.deleted {
		return tierNone, false
	}
	return e.tier, true
}

// Len returns the number of live keys across all tiers.
func (t *Tiered) Len() int {
	t.mu.Lock()
	n := 0
	for _, e := range t.entries {
		if !e.deleted {
			n++
		}
	}
	t.mu.Unlock()
	return n
}

// Keys returns every live key in sorted order.
func (t *Tiered) Keys() []string {
	t.mu.Lock()
	keys := make([]string, 0, len(t.entries))
	for k, e := range t.entries {
		if !e.deleted {
			keys = append(keys, k)
		}
	}
	t.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Size returns a live key's payload size without any I/O.
func (t *Tiered) Size(key string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[key]; e != nil && !e.deleted {
		return e.size, true
	}
	return 0, false
}

// Overwrite replaces a key's stored bytes in place, wherever they live —
// the bit-rot injection hook. The replacement must match the original
// length for disk-resident entries (rot flips bits, it doesn't resize).
// Reports whether the key existed and was rewritten.
func (t *Tiered) Overwrite(key string, data []byte) bool {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil || e.deleted || e.held() {
		t.mu.Unlock()
		return false
	}
	switch e.tier {
	case TierMem:
		var deadLoc *recordLoc
		if e.clean != tierNone {
			// The resident copy diverges from its backing record now;
			// retire the record so a respill rewrites the (rotten) truth.
			l := e.loc
			deadLoc = &l
			e.clean = tierNone
		}
		t.memBytes += int64(len(data)) - e.size
		e.data, e.size = data, int64(len(data))
		e.gen++
		t.mu.Unlock()
		if deadLoc != nil && t.disk != nil {
			t.disk.markDead(*deadLoc)
		}
		return true
	case TierDisk:
		loc := e.loc
		t.mu.Unlock()
		if int64(len(data))+headerSize+int64(len(key)) != loc.rlen {
			return false
		}
		return t.disk.corrupt(loc, len(key), data) == nil
	case TierRemote:
		t.mu.Unlock()
		return t.remote.Corrupt(t.ns+key, data)
	}
	t.mu.Unlock()
	return false
}

// RestoreReport returns what the open-time disk scan found.
func (t *Tiered) RestoreReport() RestoreReport { return t.restore }

// Stats snapshots the engine's gauges and counters.
func (t *Tiered) Stats() Stats {
	var st Stats
	t.mu.Lock()
	for _, e := range t.entries {
		if e.deleted {
			continue
		}
		switch e.tier {
		case TierMem:
			st.MemObjects++
		case TierDisk:
			st.DiskObjects++
		case TierRemote:
			st.RemoteObjects++
			st.RemoteBytes += e.size
		}
	}
	st.MemBytes = t.memBytes
	t.mu.Unlock()
	if t.disk != nil {
		st.DiskBytes, st.DiskDeadBytes = t.disk.bytes()
	}
	st.Spills = t.ctSpills.Load()
	st.Evictions = t.ctEvictions.Load()
	st.Uploads = t.ctUploads.Load()
	st.ColdReads = t.ctColdReads.Load()
	st.DiskReads = t.ctDiskReads.Load()
	st.RemoteReads = t.ctRemoteReads.Load()
	st.PrefetchIssued = t.ctPrefIssued.Load()
	st.PrefetchHits = t.ctPrefHits.Load()
	st.PrefetchDropped = t.ctPrefDropped.Load()
	st.BackpressureStalls = t.ctStalls.Load()
	st.Compactions = t.ctCompactions.Load()
	st.DiskErrors = t.ctDiskErrors.Load()
	st.RemoteFaults = t.ctRemoteFaults.Load()
	st.RestoredRecords = int64(t.restore.Restored)
	st.QuarantinedRecords = int64(t.restore.Quarantined) + t.ctQuarantined.Load()
	st.TruncatedTails = int64(t.restore.TruncatedTails)
	return st
}

func (t *Tiered) jobStart() {
	t.idleMu.Lock()
	t.inflight++
	t.idleMu.Unlock()
}

func (t *Tiered) jobDone() {
	t.idleMu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.idleCond.Broadcast()
	}
	t.idleMu.Unlock()
}

// WaitIdle blocks until no spill, upload, compaction or prefetch work is
// queued or running — the determinism hook tests and benches use.
func (t *Tiered) WaitIdle() {
	t.idleMu.Lock()
	for t.inflight > 0 {
		t.idleCond.Wait()
	}
	t.idleMu.Unlock()
}

// Close stops the background workers and closes the segment files. The
// in-memory tier is discarded — exactly what a server crash does — and the
// disk tier is what the next Open revalidates and re-indexes.
func (t *Tiered) Close() error {
	t.closeOnce.Do(func() {
		t.stop()
		t.wg.Wait()
		if t.disk != nil {
			t.disk.close()
		}
	})
	return nil
}
