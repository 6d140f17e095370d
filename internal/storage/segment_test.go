package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// spillAll opens an engine whose memory budget forces every put to disk,
// stages n distinctive payloads, and returns once all are disk-resident.
func spillAll(t *testing.T, dir string, n, size int) {
	t.Helper()
	e, err := Open(Config{Dir: dir, MemBytes: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, size))
	}
	e.WaitIdle()
	if st := e.Stats(); st.MemObjects != 0 || st.DiskObjects != n {
		t.Fatalf("not fully spilled: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestRestartRebuildsIndexFromScan(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemBytes: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.PutTagged(fmt.Sprintf("obj-%02d", i), payload(i, 300), 7)
	}
	e.WaitIdle()
	// Overwrite two keys and delete two others; both must survive the
	// restart exactly (tombstones honored, latest version wins).
	e.Put("obj-03", payload(33, 300))
	e.Delete("obj-04")
	e.Delete("obj-05")
	e.WaitIdle()
	if st := e.Stats(); st.MemObjects != 0 {
		// MemBytes=1 forces everything — including the overwrite — down.
		t.Fatalf("unexpected residency: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.Quarantined != 0 || rep.TruncatedTails != 0 {
		t.Fatalf("clean restart reported damage: %+v", rep)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		got, ok := re.Get(key)
		switch {
		case i == 4 || i == 5:
			if ok {
				t.Fatalf("%s resurrected after delete", key)
			}
		case i == 3:
			if !ok || !bytes.Equal(got, payload(33, 300)) {
				t.Fatalf("%s lost its overwrite", key)
			}
		default:
			if !ok || !bytes.Equal(got, payload(i, 300)) {
				t.Fatalf("%s not restored", key)
			}
		}
	}
	// Epoch tags survive the restart for the prefetcher.
	re.mu.Lock()
	epochLen := len(re.epochs[7])
	re.mu.Unlock()
	if epochLen == 0 {
		t.Fatal("epoch log not rebuilt from scan")
	}
}

func TestRestartTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	spillAll(t, dir, n, 300)
	files := segFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no segments")
	}
	// Chop a few bytes off the last segment: the tail record is torn,
	// exactly like a crash mid-append.
	last := files[len(files)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.TruncatedTails != 1 {
		t.Fatalf("truncated tail not detected: %+v", rep)
	}
	if rep.Restored != n-1 {
		t.Fatalf("restored %d, want %d (one torn)", rep.Restored, n-1)
	}
	alive := 0
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); ok {
			if !bytes.Equal(got, payload(i, 300)) {
				t.Fatalf("obj-%02d corrupt after truncation recovery", i)
			}
			alive++
		}
	}
	if alive != n-1 {
		t.Fatalf("alive = %d, want %d", alive, n-1)
	}
}

func TestRestartGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	spillAll(t, dir, n, 300)
	files := segFiles(t, dir)
	last := files[len(files)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not a record header at all")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.TruncatedTails != 1 || rep.Restored != n {
		t.Fatalf("garbage tail handling wrong: %+v", rep)
	}
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("obj-%02d lost to garbage tail", i)
		}
	}
}

func TestRestartFlippedBitQuarantined(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	spillAll(t, dir, n, 300)
	// Flip one bit inside obj-02's payload: its byte pattern (0xA2 x 300)
	// appears in exactly one record.
	marker := bytes.Repeat([]byte{0xA2}, 100)
	var hit string
	var pos int
	for _, f := range segFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, marker); i >= 0 {
			hit, pos = f, i+50
			break
		}
	}
	if hit == "" {
		t.Fatal("payload pattern not found")
	}
	f, err := os.OpenFile(hit, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xA2 ^ 0x10}, int64(pos)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.Quarantined != 1 {
		t.Fatalf("flipped bit not quarantined: %+v", rep)
	}
	if rep.TruncatedTails != 0 {
		t.Fatalf("rot misread as torn tail: %+v", rep)
	}
	if rep.Restored != n-1 {
		t.Fatalf("restored %d, want %d", rep.Restored, n-1)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		got, ok := re.Get(key)
		if i == 2 {
			if ok {
				t.Fatal("quarantined record served")
			}
			continue
		}
		if !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("%s lost alongside quarantine", key)
		}
	}
}

// TestRestartForeignFormatSegmentSkipped restarts over a directory holding a
// segment of the previous record format ("CSG1", CRC64-ECMA payload sums).
// Its records have valid headers and payloads that merely fail this
// version's digest, so a record-by-record scan would quarantine every one as
// rot — or, on the magic alone, truncate the file to nothing. The segment
// must instead be reported as foreign and left exactly as found, while
// current-format segments beside it restore normally.
func TestRestartForeignFormatSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	spillAll(t, dir, n, 300)
	files := segFiles(t, dir)
	last := files[len(files)-1]
	var lastID int
	if _, err := fmt.Sscanf(filepath.Base(last), "seg-%06d.log", &lastID); err != nil {
		t.Fatal(err)
	}

	// Two CSG1 records, built as that version built them.
	var old []byte
	for i := 0; i < 2; i++ {
		key, data := fmt.Sprintf("old-%02d", i), payload(40+i, 300)
		h := encodeHeader(recordHeader{typ: recData, keyLen: len(key), dataLen: len(data), epoch: -1,
			paySum: crc64.Checksum(data, crc64.MakeTable(crc64.ECMA))})
		binary.BigEndian.PutUint32(h[0:], 0x43534731) // "CSG1"
		binary.BigEndian.PutUint32(h[27:], crc32.ChecksumIEEE(h[:27]))
		old = append(append(append(old, h...), key...), data...)
	}
	foreign := filepath.Join(dir, fmt.Sprintf("seg-%06d.log", lastID+1))
	if err := os.WriteFile(foreign, old, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, MemBytes: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.ForeignSegments != 1 || rep.Quarantined != 0 || rep.TruncatedTails != 0 || rep.Restored != n {
		t.Fatalf("foreign-format segment misread: %+v", rep)
	}
	if _, ok := re.Get("old-00"); ok {
		t.Fatal("record of a foreign-format segment served")
	}
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("obj-%02d lost beside a foreign segment", i)
		}
	}
	// New spills must go to a fresh file, never into or over the foreign one.
	re.Put("new-00", payload(77, 300))
	re.WaitIdle()
	if got, err := os.ReadFile(foreign); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("foreign segment modified (err %v)", err)
	}
	if got, ok := re.Get("new-00"); !ok || !bytes.Equal(got, payload(77, 300)) {
		t.Fatal("spill after a foreign segment lost")
	}
	if len(segFiles(t, dir)) != len(files)+2 {
		t.Fatalf("segments: %v, want the %d restored + foreign + one new", segFiles(t, dir), len(files))
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{
		Dir:          dir,
		MemBytes:     1,
		segmentBytes: 2048,
		compactFrac:  0.4,
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 24
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, 400))
	}
	e.WaitIdle()
	// Kill most keys: retired segments cross the dead-fraction threshold
	// and the maintenance loop compacts them.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			e.Delete(fmt.Sprintf("obj-%02d", i))
		}
	}
	waitFor(t, "compaction", func() bool { return e.Stats().Compactions > 0 })
	e.WaitIdle()
	for i := 0; i < n; i += 4 {
		if got, ok := e.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("obj-%02d lost to compaction", i)
		}
	}
	// Compaction must also shrink the restart surface: reopen and check
	// the survivors again.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	for i := 0; i < n; i += 4 {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("obj-%02d lost after compaction restart", i)
		}
	}
	if re.Len() != n/4 {
		t.Fatalf("Len = %d, want %d", re.Len(), n/4)
	}
}

// TestCompactionCarriesTombstones drives compactOne by hand over segments of
// one record each (segmentBytes 1 rolls after every append; compactFrac 2
// keeps the maintenance loop's own compaction off): dropping the segment
// that holds a tombstone must not let a restart resurrect what the
// tombstone shadowed, must not kill a value staged after it, and must
// reclaim the tombstone once nothing older is left.
func TestCompactionCarriesTombstones(t *testing.T) {
	open := func(t *testing.T, dir string, mem int64) *Tiered {
		t.Helper()
		e, err := Open(Config{Dir: dir, MemBytes: mem, segmentBytes: 1, compactFrac: 2}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		return e
	}
	// staged opens dir and leaves "k" = old in segment 0, spilled.
	staged := func(t *testing.T, dir string) *Tiered {
		t.Helper()
		e := open(t, dir, 1)
		e.Put("k", payload(1, 300))
		e.WaitIdle()
		return e
	}
	reopen := func(t *testing.T, e *Tiered, dir string) *Tiered {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return open(t, dir, 1)
	}

	t.Run("delete stays deleted", func(t *testing.T) {
		dir := t.TempDir()
		e := staged(t, dir)
		e.Delete("k") // tombstone in segment 1
		e.compactOne(1)
		if re := reopen(t, e, dir); re.Has("k") {
			t.Fatal("deleted key resurrected after its tombstone's segment was compacted")
		}
	})

	t.Run("re-put survives", func(t *testing.T) {
		dir := t.TempDir()
		e := staged(t, dir)
		e.Delete("k")
		e.Put("k", payload(2, 300)) // segment 2
		e.WaitIdle()
		e.compactOne(1)
		re := reopen(t, e, dir)
		if got, ok := re.Get("k"); !ok || !bytes.Equal(got, payload(2, 300)) {
			t.Fatalf("re-put value lost or stale after compaction restart (found %v)", ok)
		}
	})

	t.Run("overwrite in memory never reverts", func(t *testing.T) {
		dir := t.TempDir()
		e := staged(t, dir)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		// No memory budget: the overwrite stays in L1 and dies with the
		// process, leaving only its tombstone (segment 1) on disk.
		e = open(t, dir, 0)
		e.Put("k", payload(2, 300))
		e.compactOne(1)
		re := reopen(t, e, dir)
		if got, ok := re.Get("k"); ok && !bytes.Equal(got, payload(2, 300)) {
			t.Fatal("restart served the superseded value")
		}
	})

	t.Run("pinned tombstone not rewritten every pass", func(t *testing.T) {
		dir := t.TempDir()
		e := staged(t, dir) // "k" stays live in segment 0
		e.Put("b", payload(3, 300))
		e.WaitIdle()
		e.Delete("b") // data in segment 1, tombstone in segment 2
		e.compactOne(1)
		// Segment 2 is all tombstone, but compacting it could only carry
		// the tombstone into yet another segment while segment 0 remains.
		if got := e.disk.compactCandidate(0.5); got != -1 {
			t.Fatalf("compaction candidate = %d, want none", got)
		}
	})

	t.Run("oldest tombstone reclaimed", func(t *testing.T) {
		dir := t.TempDir()
		e := staged(t, dir)
		e.Delete("k")
		// While segment 0 remains the tombstone is not dead weight.
		if got := e.disk.compactCandidate(0.5); got != 0 {
			t.Fatalf("compaction candidate = %d, want the dead data segment 0", got)
		}
		e.compactOne(0)
		if got := e.disk.compactCandidate(0.5); got != 1 {
			t.Fatalf("compaction candidate = %d, want the now-oldest tombstone segment 1", got)
		}
		e.compactOne(1)
		if files := segFiles(t, dir); len(files) != 0 {
			t.Fatalf("segments left after reclaiming everything: %v", files)
		}
		if re := reopen(t, e, dir); re.Len() != 0 {
			t.Fatalf("Len = %d after restart, want 0", re.Len())
		}
	})
}

func TestRemoteManifestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	remote := NewRemoteStore(RemoteConfig{Seed: 5})
	e, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 1}, remote, "s9/")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, 300))
	}
	waitFor(t, "uploads", func() bool { return e.Stats().Uploads >= n })
	e.WaitIdle()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart against the same (surviving) remote store: manifests must
	// re-reach every uploaded object.
	re, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 1}, remote, "s9/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if st := re.Stats(); st.RemoteObjects != n {
		t.Fatalf("manifests not restored: %+v", st)
	}
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("obj-%02d unreachable through restored manifest", i)
		}
	}
}
