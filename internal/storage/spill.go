package storage

import (
	"sort"
	"time"

	"corec/internal/scrub"
)

// demote keeps tier from within its budget: L1 (MemBytes) spills to disk,
// L2 (DiskBytes, live record bytes) uploads to the remote tier. It walks
// the tier's idle entries in the tier's victim order and queues victims
// until the excess is covered. The excess discounts the bytes whose
// demotion out of the tier is already queued or running, so a walk never
// queues again what an earlier one did.
//
// L1's order is the old internal/tiering utility-density policy: access
// frequency, decayed with age so stale heat fades, per byte; lowest first.
// L2's is least recently touched first. An L1 entry with a still-valid
// backing record flips tiers at once, with no I/O. block selects
// backpressure semantics: the foreground write path stalls on a full queue,
// while worker-context callers never do (a worker blocking on the queue it
// drains would wedge the pool); their dropped victims are retried on the
// next pass.
func (t *Tiered) demote(from Tier, block bool) {
	budget, kind, mover := t.cfg.MemBytes, jobSpill, ownSpill
	if from == TierDisk {
		budget, kind, mover = t.cfg.DiskBytes, jobUpload, ownUpload
	}
	if t.disk == nil || budget <= 0 || (from == TierDisk && t.remote == nil) {
		return
	}
	type cand struct {
		key   string
		e     *entry
		rank  float64
		bytes int64
	}
	var cands []cand
	t.mu.Lock()
	excess := t.memBytes - budget
	if from == TierDisk {
		live, _ := t.disk.bytes()
		excess = live - budget
	}
	for k, e := range t.entries {
		if excess <= 0 {
			break // the walk only lowers it: nothing to queue
		}
		if e.tier != from || e.deleted || (e.owner != ownNone && e.owner != mover) {
			continue
		}
		c := cand{k, e, float64(e.last), e.size}
		if from == TierDisk {
			c.bytes = e.loc.rlen
		}
		if e.owner == mover {
			excess -= c.bytes
			continue
		}
		if from == TierMem {
			if e.prefetched && t.clock-e.last < 4096 {
				// Freshly staged by the prefetcher and not yet consumed:
				// evicting it now would defeat the pipeline. The exemption
				// lapses once the entry ages without its hit.
				continue
			}
			age := float64(t.clock - e.last)
			c.rank = e.freq / (1 + age/1024) / float64(e.size+1)
		}
		cands = append(cands, c)
	}
	if excess > 0 {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].rank != cands[j].rank {
				return cands[i].rank < cands[j].rank
			}
			return cands[i].key < cands[j].key
		})
	}
	var jobs []string
	for _, c := range cands {
		if excess <= 0 {
			break
		}
		excess -= c.bytes
		if from == TierMem && c.e.clean != tierNone {
			// The backing record is still valid: eviction is free.
			c.e.tier, c.e.clean, c.e.data = c.e.clean, tierNone, nil
			t.memBytes -= c.e.size
			t.ctEvictions.Add(1)
			continue
		}
		c.e.owner = mover
		jobs = append(jobs, c.key)
	}
	t.mu.Unlock()
	for _, k := range jobs {
		t.enqueue(job{kind: kind, key: k}, block)
	}
}

// enqueue submits background work. block selects backpressure semantics:
// spills must eventually land (memory is over budget), so their callers
// stall on a full queue; uploads, compactions and prefetches are advisory
// and drop instead.
func (t *Tiered) enqueue(j job, block bool) {
	t.jobStart()
	select {
	case t.workCh <- j:
		return
	default:
	}
	if !block {
		t.abandonJob(j)
		return
	}
	t.ctStalls.Add(1)
	select {
	case t.workCh <- j:
	case <-t.ctx.Done():
		t.abandonJob(j)
	}
}

func (t *Tiered) abandonJob(j job) {
	if j.key != "" {
		t.mu.Lock()
		if e := t.entries[j.key]; e != nil {
			e.owner = ownNone
		}
		t.mu.Unlock()
	}
	if j.kind == jobCompact {
		t.compacting.Store(false)
	}
	t.jobDone()
}

func (t *Tiered) worker() {
	defer t.wg.Done()
	for {
		select {
		case <-t.ctx.Done():
			return
		case j := <-t.workCh:
			switch j.kind {
			case jobSpill:
				t.spillOne(j.key)
			case jobUpload:
				t.uploadOne(j.key)
			case jobCompact:
				t.compactOne(j.seg)
				t.compacting.Store(false)
			}
			t.jobDone()
		}
	}
}

// spillOne writes one dirty resident entry to the disk tier and flips it
// to TierDisk. If the entry changed while the record was being written,
// the stale record is killed (holding the entry makes this safe — see
// settleStale).
func (t *Tiered) spillOne(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.deleted || e.tier != TierMem {
		t.mu.Unlock()
		t.settleStale(key, nil, false)
		return
	}
	data, gen, epoch := e.data, e.gen, e.epoch
	t.mu.Unlock()
	loc, err := t.disk.append(recData, key, epoch, data)
	if err != nil {
		t.ctDiskErrors.Add(1)
		t.release(key, gen, nil, false)
		return
	}
	t.mu.Lock()
	e = t.entries[key]
	if e == nil || e.gen != gen || e.deleted {
		t.mu.Unlock()
		t.settleStale(key, []recordLoc{loc}, false)
		return
	}
	e.tier, e.clean, e.loc, e.data, e.owner = TierDisk, tierNone, loc, nil, ownNone
	t.memBytes -= e.size
	t.mu.Unlock()
	t.ctSpills.Add(1)
	t.ctEvictions.Add(1)
	t.demote(TierDisk, false)
}

// uploadOne moves one disk entry to the remote store: read + revalidate
// the record, pay the modelled upload, append the manifest, retire the
// data record. A remote fault leaves the entry on disk for a later retry.
func (t *Tiered) uploadOne(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.deleted || e.tier != TierDisk {
		// Moved while queued: its record is still the one it was queued
		// with, and this job retires it.
		loc := e.loc
		t.mu.Unlock()
		t.settleStale(key, []recordLoc{loc}, false)
		return
	}
	loc, gen, epoch := e.loc, e.gen, e.epoch
	t.mu.Unlock()
	data, _, err := t.disk.read(loc)
	if err != nil {
		if err == errBadPayload || err == errBadHeader {
			t.quarantine(key, gen, loc)
			t.settleStale(key, nil, false)
			return
		}
		// errSegGone (compaction) or I/O: release and retry later.
		if err != errSegGone {
			t.ctDiskErrors.Add(1)
		}
		t.release(key, gen, []recordLoc{loc}, false)
		return
	}
	if err := t.remote.Put(t.ns+key, data); err != nil {
		t.ctRemoteFaults.Add(1)
		t.release(key, gen, []recordLoc{loc}, false)
		return
	}
	sum := scrub.Checksum(data)
	mloc, err := t.disk.append(recRemote, key, epoch, encodeManifest(sum, int64(len(data))))
	if err != nil {
		t.ctDiskErrors.Add(1)
		t.release(key, gen, []recordLoc{loc}, true) // the remote copy is down
		return
	}
	t.mu.Lock()
	e = t.entries[key]
	if e == nil || e.gen != gen || e.deleted {
		t.mu.Unlock()
		t.settleStale(key, []recordLoc{loc, mloc}, true)
		return
	}
	// The manifest supersedes the data record by scan order; no tombstone.
	// The record dies under t.mu, so no walk sees the entry idle in L3 and
	// its record still live in L2.
	t.disk.markDead(e.loc) // not loc: a compaction may have moved the record
	e.tier, e.loc, e.sum, e.owner = TierRemote, mloc, sum, ownNone
	t.mu.Unlock()
	t.ctUploads.Add(1)
	// The manifest is new L2 bytes: the tier may still be over budget.
	t.demote(TierDisk, false)
}

// release is a background job's exit without a commit. While the job held
// the entry, a Delete or re-put left the entry's old records to it: if
// the entry moved (re-put, or deleted), the job settles locs, the records it
// knew of, and the remote copy when remoteDel. Otherwise it lets go of the
// entry, to be retried later.
func (t *Tiered) release(key string, gen uint64, locs []recordLoc, remoteDel bool) {
	t.mu.Lock()
	e := t.entries[key]
	moved := e != nil && (e.gen != gen || e.deleted)
	if e != nil && !moved {
		e.owner = ownNone
	}
	t.mu.Unlock()
	if moved {
		t.settleStale(key, locs, remoteDel)
	}
}

// maintenance periodically re-evaluates the upload policy and segment
// compaction, independent of foreground traffic.
func (t *Tiered) maintenance() {
	defer t.wg.Done()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-tick.C:
			t.demote(TierDisk, false)
			if seg := t.disk.compactCandidate(t.cfg.compactFrac); seg >= 0 {
				if t.compacting.CompareAndSwap(false, true) {
					t.enqueue(job{kind: jobCompact, seg: seg}, false)
				}
			}
		}
	}
}

// compactOne rewrites a retired segment's live records into the active
// segment, carries forward the tombstones that still shadow an older
// record, and drops the file. Entries are re-pointed only if nothing moved
// them meanwhile (gen + loc equality); concurrent readers of the old
// segment see errSegGone after the drop and re-resolve.
func (t *Tiered) compactOne(segID int) {
	tombs, err := t.disk.tombstoneKeys(segID)
	if err != nil {
		t.ctDiskErrors.Add(1)
		return // keep the segment: its tombstones cannot be told apart
	}
	type item struct {
		key   string
		gen   uint64
		loc   recordLoc
		typ   byte
		epoch int64
	}
	var items []item
	t.mu.Lock()
	for k, e := range t.entries {
		if e.deleted || e.loc.seg != segID {
			continue
		}
		var typ byte
		switch {
		case e.tier == TierDisk || (e.tier == TierMem && e.clean == TierDisk):
			typ = recData
		case e.tier == TierRemote || (e.tier == TierMem && e.clean == TierRemote):
			typ = recRemote
		default:
			continue
		}
		items = append(items, item{k, e.gen, e.loc, typ, e.epoch})
	}
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].loc.off < items[j].loc.off })
	for _, it := range items {
		payload, _, err := t.disk.read(it.loc)
		if err != nil {
			if err == errBadPayload || err == errBadHeader {
				t.quarantine(it.key, it.gen, it.loc)
			}
			continue
		}
		newLoc, err := t.disk.append(it.typ, it.key, it.epoch, payload)
		if err != nil {
			t.ctDiskErrors.Add(1)
			return // keep the old segment; nothing is lost
		}
		t.mu.Lock()
		e := t.entries[it.key]
		if e != nil && e.gen == it.gen && e.loc == it.loc {
			e.loc = newLoc
			t.mu.Unlock()
		} else {
			t.mu.Unlock()
			t.disk.markDead(newLoc)
		}
	}
	for _, key := range tombs {
		if !t.carryTombstone(key) {
			return // keep the old segment; the tombstone still stands in it
		}
	}
	t.disk.dropSegment(segID)
	t.ctCompactions.Add(1)
}

// carryTombstone re-appends key's tombstone, out of a segment about to be
// dropped, unless a newer record makes it moot: a live on-disk record
// supersedes everything older by scan order (and a tombstone appended
// after it would kill it), and a held entry's job ends by writing
// either such a record or a tombstone of its own. The append happens under
// t.mu so that no spill of the key can start, and land first, in between.
func (t *Tiered) carryTombstone(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[key]; e != nil && (e.held() || e.tier != TierMem || e.clean != tierNone) {
		return true
	}
	return t.appendTombstone(key)
}
