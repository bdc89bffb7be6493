package ingest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rfprism"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsExpositionGolden pins the daemon's full /metrics page —
// every family name, TYPE line and label — against a golden file, so a
// refactor of the registry or a renamed series cannot slip through as
// a silent monitoring break. The clock is pinned and every instrument
// is driven deterministically.
func TestMetricsExpositionGolden(t *testing.T) {
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m := NewMetrics(start)
	m.ReportsAccepted.Add(5)
	m.ReportsRejected.Add(1)
	m.WindowClosed(CloseCoverage)
	m.WindowClosed(CloseDeadline)
	m.ResultsOK.Add(1)
	m.WindowsDegraded.Add(1)
	m.ObserveLatency(30 * time.Millisecond)
	m.ObserveLatency(7 * time.Second) // overflow bucket
	m.RecordWindow("epc-1", []rfprism.Span{
		{Stage: rfprism.StageSolve, Duration: 20 * time.Millisecond},
		{Stage: rfprism.StageFit, Duration: 300 * time.Microsecond},
		{Stage: rfprism.StageWindow, Duration: 25 * time.Millisecond},
		{Stage: "unknown-stage", Duration: time.Second}, // dropped, not minted
	})
	// Solver fast-path counters, sampled from the System at render time.
	m.AttachSolverStats(func() rfprism.SolveStatsSnapshot {
		return rfprism.SolveStatsSnapshot{
			CacheHits: 9, CacheMisses: 4,
			WarmAttempts: 6, WarmFallbacks: 2,
		}
	})

	var buf bytes.Buffer
	m.WriteText(&buf, start.Add(90*time.Second), Gauges{
		QueueDepth: 2, QueueCap: 64, OpenSessions: 3, BufferedReadings: 17,
		JournalEnabled: true, JournalNextSeq: 42, JournalSyncedSeq: 40, JournalSegments: 2,
	})
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("/metrics drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsStageHistograms: spans fed through the Tracer interface
// land in the per-stage histogram of their stage only.
func TestMetricsStageHistograms(t *testing.T) {
	m := NewMetrics(time.Now())
	var tr rfprism.Tracer = m // Metrics must satisfy rfprism.Tracer
	tr.RecordWindow("A", []rfprism.Span{
		{Stage: rfprism.StageSolve, Duration: 2 * time.Millisecond},
		{Stage: rfprism.StageSolve, Duration: 3 * time.Millisecond},
		{Stage: rfprism.StageSpectra, Duration: 100 * time.Microsecond},
	})
	if got := m.stages[rfprism.StageSolve].Count(); got != 2 {
		t.Errorf("solve histogram count %d, want 2", got)
	}
	if got := m.stages[rfprism.StageSpectra].Count(); got != 1 {
		t.Errorf("spectra histogram count %d, want 1", got)
	}
	if got := m.stages[rfprism.StageFit].Count(); got != 0 {
		t.Errorf("fit histogram count %d, want 0", got)
	}
	var buf bytes.Buffer
	m.WriteText(&buf, time.Now(), Gauges{})
	out := buf.String()
	if !strings.Contains(out, `rfprismd_stage_latency_seconds_count{stage="solve"} 2`) {
		t.Errorf("exposition missing solve stage count:\n%s", out)
	}
	if strings.Contains(out, "rfprismd_journal_next_seq") {
		t.Error("journal gauges rendered for a journal-less daemon")
	}
}
