package storage

// observeRead feeds the prefetcher's sequential-read detector. Two
// consecutive in-order reads within one epoch (time step) arm it: it then
// stages the next cold keys of the current epoch and — sequential
// time-step detection — the head of the following epoch, so the reads of
// step N+1 overlap the compute of step N.
func (t *Tiered) observeRead(epoch int64, seq int) {
	if t.prefCh == nil || epoch < 0 || seq < 0 {
		return
	}
	var picks []string
	t.mu.Lock()
	switch {
	case epoch == t.streakEpoch && seq == t.streakSeq+1:
		t.streakRun++
	case epoch == t.streakEpoch:
		t.streakRun = 1
	default:
		t.streakEpoch = epoch
		t.streakRun = 1
	}
	t.streakSeq = seq
	if t.streakRun >= 2 {
		depth := t.cfg.prefetchDepth
		picks = t.coldRangeLocked(epoch, seq+1, depth)
		if len(t.epochs[epoch+1]) > 0 {
			picks = append(picks, t.coldRangeLocked(epoch+1, 0, depth)...)
		}
	}
	t.mu.Unlock()
	for _, k := range picks {
		t.jobStart()
		select {
		case t.prefCh <- k:
		default:
			// Advisory work: a full pipeline drops rather than stalls.
			t.ctPrefDropped.Add(1)
			t.mu.Lock()
			if e := t.entries[k]; e != nil && e.owner == ownPrefetchQueue {
				e.owner = ownNone
			}
			t.mu.Unlock()
			t.jobDone()
		}
	}
}

// coldRangeLocked picks up to depth cold, unclaimed keys of the epoch at
// or after arrival position from, marking them queued. Caller holds t.mu.
func (t *Tiered) coldRangeLocked(epoch int64, from, depth int) []string {
	log := t.epochs[epoch]
	if from >= len(log) {
		return nil
	}
	var picks []string
	for _, k := range log[from:] {
		if len(picks) >= depth {
			break
		}
		e := t.entries[k]
		if e == nil || e.deleted || e.owner != ownNone || e.tier == TierMem {
			continue
		}
		// The entry may have been re-put under a different epoch since;
		// only stage it if it still belongs to the scanned step.
		if e.epoch != epoch {
			continue
		}
		e.owner = ownPrefetchQueue
		picks = append(picks, k)
	}
	return picks
}

// prefetchWorker drains the staging queue, pacing reads through the token
// bucket so prefetch I/O never starves foreground gets, and installs each
// payload into L1 marked prefetched (a later foreground hit counts it).
func (t *Tiered) prefetchWorker() {
	defer t.wg.Done()
	for {
		select {
		case <-t.ctx.Done():
			return
		case key := <-t.prefCh:
			t.prefetchOne(key)
			t.jobDone()
		}
	}
}

func (t *Tiered) prefetchOne(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil || e.deleted || e.held() || e.tier == TierMem {
		if e != nil && e.owner == ownPrefetchQueue {
			e.owner = ownNone
		}
		t.mu.Unlock()
		return
	}
	e.owner = ownPrefetch
	tier, loc, gen, sum, size := e.tier, e.loc, e.gen, e.sum, e.size
	t.mu.Unlock()

	// The records this job answers for if the entry moves under it.
	locs, remoteDel := []recordLoc{loc}, tier == TierRemote
	if t.pacer.Take(t.ctx, size) != nil {
		t.release(key, gen, locs, remoteDel) // the engine is closing
		return
	}
	var data []byte
	var err error
	switch tier {
	case TierDisk:
		data, _, err = t.disk.read(loc)
		if err == errBadPayload || err == errBadHeader {
			t.quarantine(key, gen, loc)
			t.settleStale(key, nil, false)
			return
		}
		if err != nil {
			// errSegGone (compaction) or I/O: release; a later read or
			// observation re-stages it.
			if err != errSegGone {
				t.ctDiskErrors.Add(1)
			}
			t.release(key, gen, locs, remoteDel)
			return
		}
	case TierRemote:
		data, err = t.remoteFetch(key, gen, loc, sum)
		if err != nil {
			t.release(key, gen, locs, remoteDel)
			return
		}
	default:
		t.release(key, gen, locs, remoteDel)
		return
	}
	if !t.install(key, gen, data, tier, true, true) {
		// The entry moved under us; settle the records we were promoting.
		t.settleStale(key, locs, remoteDel)
	}
}
