package tables

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"jepo/internal/corpus"
)

// fakeRow builds a plausible completed measurement for checkpoint fixtures.
func fakeRow(name string) Table4Row {
	return Table4Row{
		Classifier:  name,
		Changes:     700 + len(name),
		PackagePct:  3.5,
		CPUPct:      3.1,
		TimePct:     2.8,
		AccuracyPct: 0.2,
	}
}

// TestSupervisedPanicIsolatedAndResumed is the Table IV acceptance test: one
// classifier's pipeline panicking must not lose the other nine rows, and a
// rerun against the same checkpoint directory must re-attempt exactly the
// failed classifier.
func TestSupervisedPanicIsolatedAndResumed(t *testing.T) {
	dir := t.TempDir()
	const bad = "SMO"
	for _, name := range corpus.Classifiers {
		if name == bad {
			continue
		}
		if err := saveCheckpoint(dir, fakeRow(name)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Table4Config{
		Instances:     50,
		CheckpointDir: dir,
		RowHook: func(name string) error {
			if name == bad {
				panic("injected kernel fault")
			}
			return fmt.Errorf("hook reached %s: checkpoint resume failed", name)
		},
	}
	rows, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(corpus.Classifiers) {
		t.Fatalf("rows = %d, want %d", len(rows), len(corpus.Classifiers))
	}
	for _, r := range rows {
		if r.Classifier == bad {
			if !strings.Contains(r.Err, "panic: injected kernel fault") {
				t.Errorf("%s Err = %q, want the recovered panic", bad, r.Err)
			}
			continue
		}
		if r.Err != "" {
			t.Errorf("%s failed instead of resuming: %s", r.Classifier, r.Err)
		}
		if want := fakeRow(r.Classifier); r != want {
			t.Errorf("%s resumed row = %+v, want %+v", r.Classifier, r, want)
		}
	}
	if failed := FailedRows(rows); len(failed) != 1 || failed[0].Classifier != bad {
		t.Errorf("failed rows = %+v, want exactly %s", failed, bad)
	}
	// Failures must not be checkpointed, so the rerun retries them.
	if _, err := os.Stat(checkpointPath(dir, bad)); !os.IsNotExist(err) {
		t.Errorf("failed row was checkpointed: stat err = %v", err)
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "FAILED: panic: injected kernel fault") {
		t.Errorf("render lacks the failure entry:\n%s", out)
	}
	if !strings.Contains(out, "RandomForest") {
		t.Errorf("render lost the surviving rows:\n%s", out)
	}

	// Rerun: only the failed classifier is re-attempted.
	var mu sync.Mutex
	var attempted []string
	cfg.RowHook = func(name string) error {
		mu.Lock()
		attempted = append(attempted, name)
		mu.Unlock()
		return errors.New("still failing")
	}
	rows2, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(attempted) != 1 || attempted[0] != bad {
		t.Errorf("rerun attempted %v, want only %s", attempted, bad)
	}
	for i, r := range rows2 {
		if r.Classifier == bad {
			if r.Err != "still failing" {
				t.Errorf("rerun %s Err = %q", bad, r.Err)
			}
			continue
		}
		if r != rows[i] {
			t.Errorf("rerun %s row changed: %+v vs %+v", r.Classifier, r, rows[i])
		}
	}
}

// TestSupervisedRowTimeout abandons a hung classifier at the deadline while
// the rest of the run completes.
func TestSupervisedRowTimeout(t *testing.T) {
	const hung = "KStar"
	cfg := Table4Config{
		Instances:  50,
		RowTimeout: 50 * time.Millisecond,
		RowHook: func(name string) error {
			if name == hung {
				time.Sleep(400 * time.Millisecond)
			}
			return errors.New("fast failure")
		},
	}
	start := time.Now()
	rows, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Classifier == hung {
			if !strings.Contains(r.Err, "deadline exceeded") {
				t.Errorf("%s Err = %q, want deadline", hung, r.Err)
			}
		} else if r.Err != "fast failure" {
			t.Errorf("%s Err = %q", r.Classifier, r.Err)
		}
	}
	// The hung row is abandoned, not awaited: the whole run finishes well
	// under the hook's sleep even single-slotted.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("run took %v — the supervisor waited for the hung row", elapsed)
	}
}

func TestLoadCheckpointRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(checkpointPath(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("J48", "{truncated")
	if _, ok := loadCheckpoint(dir, "J48"); ok {
		t.Error("corrupt JSON accepted")
	}
	writeFile("IBk", `{"Classifier": "J48", "Changes": 1}`)
	if _, ok := loadCheckpoint(dir, "IBk"); ok {
		t.Error("mismatched classifier accepted")
	}
	writeFile("SGD", `{"Classifier": "SGD", "Err": "old failure"}`)
	if _, ok := loadCheckpoint(dir, "SGD"); ok {
		t.Error("checkpointed failure accepted — failures must be re-attempted")
	}
	if _, ok := loadCheckpoint(dir, "Logistic"); ok {
		t.Error("missing file accepted")
	}
	if err := saveCheckpoint(dir, fakeRow("Logistic")); err != nil {
		t.Fatal(err)
	}
	row, ok := loadCheckpoint(dir, "Logistic")
	if !ok || row != fakeRow("Logistic") {
		t.Errorf("round-trip = %+v, %v", row, ok)
	}
	// Empty dir disables checkpointing entirely.
	if err := saveCheckpoint("", fakeRow("J48")); err != nil {
		t.Errorf("no-dir save errored: %v", err)
	}
	if _, ok := loadCheckpoint("", "Logistic"); ok {
		t.Error("no-dir load resumed something")
	}
}

func TestSupervisedCheckpointDirInfraError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Table4Config{CheckpointDir: filepath.Join(file, "sub")}
	if _, err := Table4Supervised(context.Background(), cfg); err == nil {
		t.Fatal("unusable checkpoint dir must be an infrastructure error")
	}
}

// TestSupervisedMeasuresOneRealRow runs a single classifier's genuine
// pipeline at minimal scale through the supervisor, proving the success path
// measures, checkpoints, and resumes bit-identically.
func TestSupervisedMeasuresOneRealRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one real classifier pipeline; skipped with -short")
	}
	dir := t.TempDir()
	const real = "NaiveBayes"
	cfg := DefaultTable4Config()
	cfg.Instances = 150
	cfg.Reps = 1
	cfg.Protocol.Runs = 3
	cfg.Protocol.MaxRounds = 1
	cfg.CVFolds = 2
	cfg.Quiet = true
	cfg.CheckpointDir = dir
	cfg.RowHook = func(name string) error {
		if name == real {
			return nil
		}
		return errors.New("skipped for speed")
	}
	rows, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var measured *Table4Row
	for i := range rows {
		if rows[i].Classifier == real {
			measured = &rows[i]
		}
	}
	if measured == nil || measured.Err != "" {
		t.Fatalf("real row failed: %+v", measured)
	}
	if measured.Changes <= 0 {
		t.Errorf("measured row has no changes: %+v", measured)
	}
	saved, ok := loadCheckpoint(dir, real)
	if !ok {
		t.Fatal("successful row not checkpointed")
	}
	if saved != *measured {
		t.Errorf("checkpoint round-trip drifted: %+v vs %+v", saved, *measured)
	}
	// Resume run must not re-measure: the hook fails everything, yet the
	// measured row returns intact.
	rows2, err := Table4Supervised(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, r := range rows2 {
		if r.Classifier == real {
			if r != *measured {
				t.Errorf("resumed row drifted: %+v vs %+v", r, *measured)
			}
		} else if r.Err == "" {
			names = append(names, r.Classifier)
		}
	}
	sort.Strings(names)
	if len(names) != 0 {
		t.Errorf("unexpected successes without checkpoints: %v", names)
	}
}

// TestAtomicWriteFile: a rewrite replaces the bytes whole and leaves no temp
// file behind, so a checkpoint reader never sees a torn write.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := atomicWriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "second" {
		t.Fatalf("read %q, %v; want %q", blob, err, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}
}
