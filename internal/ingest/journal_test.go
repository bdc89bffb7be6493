package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

func testJournal(t *testing.T, cfg JournalConfig) *Journal {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = time.Hour // tests drive syncs explicitly
	}
	j, err := OpenJournal(cfg)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func testReading(epc string, ch int) sim.Reading {
	return sim.Reading{EPC: epc, Antenna: 1, Channel: ch, FreqHz: 920e6, Phase: 1.25, RSSI: -52}
}

// TestJournalAppendReplayRoundTrip: appended reports come back from
// Replay in order with positional sequence numbers, across segment
// rotations.
func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 4})
	const n = 11
	for i := 0; i < n; i++ {
		seq, _, err := j.Append(testReading("epc-1", i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d got seq %d", i, seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the sequence counter continues where the disk left off,
	// and replay yields every report with its original seq.
	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != n {
		t.Fatalf("reopened NextSeq = %d, want %d", got, n)
	}
	var seqs []uint64
	st, err := j2.Replay(func(seq uint64, rd sim.Reading) error {
		if rd.EPC != "epc-1" || rd.Channel != int(seq) {
			t.Errorf("seq %d: got %+v", seq, rd)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Reports != n || st.Corrupt != 0 || st.Torn != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("replay order broken: %v", seqs)
		}
	}
}

// TestJournalSyncRecordsBoundary: the record-count trigger bounds the
// unsynced tail deterministically.
func TestJournalSyncRecordsBoundary(t *testing.T) {
	j := testJournal(t, JournalConfig{Dir: t.TempDir(), SyncRecords: 3})
	for i := 0; i < 7; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 appends with a 3-record trigger: synced at 3 and 6.
	if got := j.SyncedSeq(); got != 6 {
		t.Fatalf("SyncedSeq = %d, want 6", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.SyncedSeq(); got != 7 {
		t.Fatalf("after Sync, SyncedSeq = %d, want 7", got)
	}
}

// TestJournalSyncTo: the WAL rule primitive — syncing "up to" a seq
// fsyncs when the durable mark has not passed it and no-ops when it
// has.
func TestJournalSyncTo(t *testing.T) {
	j := testJournal(t, JournalConfig{Dir: t.TempDir(), SyncEvery: time.Hour})
	for i := 0; i < 5; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.SyncedSeq(); got != 0 {
		t.Fatalf("pre: SyncedSeq = %d, want 0", got)
	}
	if err := j.SyncTo(2); err != nil {
		t.Fatal(err)
	}
	// syncLocked flushes everything buffered, not just up to the mark.
	if got := j.SyncedSeq(); got != 5 {
		t.Fatalf("after SyncTo(2): SyncedSeq = %d, want 5", got)
	}
	if err := j.SyncTo(3); err != nil { // already durable: no-op
		t.Fatal(err)
	}
	if got := j.SyncedSeq(); got != 5 {
		t.Fatalf("after no-op SyncTo: SyncedSeq = %d, want 5", got)
	}
}

// TestJournalRetention: Retain deletes exactly the closed segments
// wholly below the needed mark, never the active one.
func TestJournalRetention(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	for i := 0; i < 7; i++ { // segments [0,1] [2,3] [4,5], active [6]
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Retain(4); err != nil {
		t.Fatal(err)
	}
	// Segments [0,1] and [2,3] are wholly below 4 → gone; [4,5] stays.
	if got := j.Segments(); got != 2 {
		t.Fatalf("after Retain(4): %d segments, want 2", got)
	}
	st, err := j.Replay(func(seq uint64, rd sim.Reading) error {
		if seq < 4 {
			t.Errorf("replayed deleted seq %d", seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 {
		t.Fatalf("replayed %d reports after retention, want 2", st.Reports)
	}
}

// TestJournalTornTailTolerated: a segment cut mid-line (the kill -9
// shape) replays its complete lines and recycles the torn position for
// the next report after reopen.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: chop the last line in half.
	seg := filepath.Join(dir, "journal-0000000000000000.ndjson")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after torn tail = %d, want 2 (torn position recycled)", got)
	}
	st, err := j2.Replay(func(uint64, sim.Reading) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 || st.Torn != 1 {
		t.Fatalf("stats = %+v, want 2 reports / 1 torn", st)
	}
}

// TestJournalCorruptLineSkipped: a complete-but-undecodable line is
// skipped, counted, and still consumes its sequence position so later
// reports keep their identities.
func TestJournalCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	if _, _, err := j.Append(testReading("e", 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal-0000000000000000.ndjson")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"epc\": garbage\n{\"epc\":\"e\",\"antenna\":1,\"channel\":5,\"freqHz\":920e6,\"phase\":1,\"rssi\":-50,\"t\":0}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := testJournal(t, JournalConfig{Dir: dir})
	var got []uint64
	st, err := j2.Replay(func(seq uint64, rd sim.Reading) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 2 reports / 1 corrupt", st)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("seqs = %v, want [0 2] (corrupt line keeps position 1)", got)
	}
}

// TestResultsLedgerTornTailTruncated: a torn trailing result line is
// removed at open (the window was never durably emitted), complete
// lines survive, and EmittedSet keys on (EPC, FirstSeq).
func TestResultsLedgerTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	if err := j.AppendResult(TagResult{EPC: "e1", FirstSeq: 0, LastSeq: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendResult(TagResult{EPC: "e1", FirstSeq: 40, LastSeq: 44}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, resultsName)
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledger, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	emitted, err := j2.EmittedSet()
	if err != nil {
		t.Fatal(err)
	}
	last, ok := emitted[WindowKey{EPC: "e1", FirstSeq: 0}]
	if len(emitted) != 1 || !ok || last != 7 {
		t.Fatalf("emitted = %v, want only (e1, 0) with last seq 7", emitted)
	}
	// The ledger must have been physically truncated so fresh appends
	// don't splice onto the torn fragment.
	raw2, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if raw2[len(raw2)-1] != '\n' {
		t.Fatal("ledger not newline-terminated after truncation")
	}
}

// TestJournalEmptyActiveSegmentNotRetained: a run that dies (or just
// closes) before its active segment gets a single complete line leaves
// a zero-record file whose name the next run's active segment reuses.
// The reopened journal must not keep a stale duplicate entry for that
// path, or Retain would unlink the live active segment out from under
// fresh appends.
func TestJournalEmptyActiveSegmentNotRetained(t *testing.T) {
	dir := t.TempDir()
	j1 := testJournal(t, JournalConfig{Dir: dir})
	if err := j1.Close(); err != nil { // leaves journal-0 with 0 records
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != 0 {
		t.Fatalf("NextSeq after empty reopen = %d, want 0", got)
	}
	if got := j2.Segments(); got != 1 {
		t.Fatalf("segments after empty reopen = %d, want 1 (no stale alias)", got)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, _, err := j2.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	// With the stale zero-record entry still aliased, firstSeq+0 <=
	// minNeeded holds trivially and this deletes the live active file.
	if err := j2.Retain(j2.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3 := testJournal(t, JournalConfig{Dir: dir})
	if got := j3.NextSeq(); got != n {
		t.Fatalf("NextSeq after retention = %d, want %d (active segment deleted?)", got, n)
	}
	st, err := j3.Replay(func(uint64, sim.Reading) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != n {
		t.Fatalf("replayed %d reports, want %d", st.Reports, n)
	}
}

// TestJournalEmptyActiveAfterRotation: the same shape right after a
// rotation — the closed, record-bearing segment must survive retention
// that the stale empty-active entry would otherwise licence.
func TestJournalEmptyActiveAfterRotation(t *testing.T) {
	dir := t.TempDir()
	j1 := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	for i := 0; i < 2; i++ { // fills segment [0,1], rotates to empty journal-2
		if _, _, err := j1.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	if got := j2.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
	if _, _, err := j2.Append(testReading("e", 2)); err != nil {
		t.Fatal(err)
	}
	// Nothing below seq 2 is needed: segment [0,1] goes, but the active
	// segment holding seq 2 must not be touched by its stale alias.
	if err := j2.Retain(2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3 := testJournal(t, JournalConfig{Dir: dir})
	var seqs []uint64
	st, err := j3.Replay(func(seq uint64, _ sim.Reading) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 1 || len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("replay after rotation+retention = %+v seqs %v, want just seq 2", st, seqs)
	}
}

// TestJournalQuarantine: a poisoned window lands as re-feedable NDJSON
// plus the panic report.
func TestJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	key := WindowKey{EPC: "bad/epc", FirstSeq: 7}
	readings := []sim.Reading{testReading("bad/epc", 3)}
	if err := j.Quarantine(key, readings, "panic: boom\nstack..."); err != nil {
		t.Fatal(err)
	}
	base := j.QuarantinePath(key)
	raw, err := os.ReadFile(base + ".ndjson")
	if err != nil {
		t.Fatalf("quarantined readings: %v", err)
	}
	if rd, err := decodeReading(raw[:len(raw)-1]); err != nil || rd.Channel != 3 {
		t.Fatalf("quarantined line not re-feedable: %v %+v", err, rd)
	}
	if rep, err := os.ReadFile(base + ".panic.txt"); err != nil || len(rep) == 0 {
		t.Fatalf("panic report: %v", err)
	}
}

// TestJournalSegmentBytes: a segment holds exactly json.Marshal of
// each appended report plus '\n' (the format journals have always
// had, so older segments replay unchanged), replay returns the
// appended readings, and the segment re-fed through POST /ingest as is
// journals the same bytes again.
func TestJournalSegmentBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in []sim.Reading
	for i := 0; i < 300; i++ {
		in = append(in, sim.Reading{
			EPC:     fmt.Sprintf("E200-%03d", rng.Intn(7)),
			Antenna: rng.Intn(4), Channel: rng.Intn(rf.NumChannels),
			FreqHz: 902.75e6 + 0.5e6*float64(rng.Intn(rf.NumChannels)),
			Phase:  math.Round(rng.Float64()*2*math.Pi*2048) / 2048,
			RSSI:   math.Round(-80+rng.Float64()*40) / 2,
			T:      time.Duration(rng.Int63n(int64(10 * time.Second))),
		})
	}
	in = append(in,
		sim.Reading{EPC: `tag<"&\>é`, Channel: 3, FreqHz: 920e6, Phase: 5e-324, RSSI: -60},  // escaped EPC, subnormal
		sim.Reading{EPC: "big", Channel: 4, FreqHz: 1e21, Phase: 1e-7, RSSI: -2.5e22, T: 1}, // 'e' format
	)
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	var want []byte
	for _, rd := range in {
		if _, _, err := j.Append(rd); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rd)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal-0000000000000000.ndjson")
	got, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment differs from json.Marshal lines:\n got %.300q\nwant %.300q", got, want)
	}

	i := 0
	st, err := testJournal(t, JournalConfig{Dir: dir}).Replay(func(seq uint64, rd sim.Reading) error {
		if seq != uint64(i) || rd != in[i] {
			t.Errorf("replay seq %d: %+v, want seq %d %+v", seq, rd, i, in[i])
		}
		i++
		return nil
	})
	if err != nil || st.Reports != len(in) || st.Corrupt != 0 {
		t.Fatalf("replay: %+v, %v; want %d reports", st, err, len(in))
	}

	// Re-feed the segment verbatim into a journaling daemon.
	dir2 := t.TempDir()
	d := NewDaemon(echoProc{}, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 1 << 20, MinAntennas: 1, Dwell: time.Hour},
		Journal:     testJournal(t, JournalConfig{Dir: dir2}),
	})
	srv := httptest.NewServer(NewServer(d, nil).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("re-feed: status %d", resp.StatusCode)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir2, "journal-0000000000000000.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("re-fed segment differs:\n got %.300q\nwant %.300q", again, want)
	}
}
