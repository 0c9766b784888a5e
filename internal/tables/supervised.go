// Supervised Table IV runner. The plain Table4 aborts the whole regeneration
// on the first failing classifier; under real measurement conditions one bad
// row must not kill a run that has already spent minutes measuring the other
// nine. Table4Supervised runs every classifier under its own supervisor —
// panic recovery, optional deadline — turns failures into per-row error
// entries, and checkpoints completed rows so an interrupted run resumes
// without re-measuring.
package tables

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/corpus"
	"jepo/internal/dataset"
	"jepo/internal/sched"
)

// Table4Supervised runs the full §VIII validation with per-row supervision.
// Every classifier produces a row: successful rows carry measurements,
// failed ones carry Err. The returned error covers infrastructure problems
// only (an unusable checkpoint directory), never a row failure.
func Table4Supervised(ctx context.Context, cfg Table4Config) ([]Table4Row, error) {
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("tables: checkpoint dir: %w", err)
		}
	}
	data := airlines.Generate(cfg.Instances, cfg.Seed)
	feats, labels := kernelData(data)
	var sayMu sync.Mutex
	say := func(format string, args ...any) {
		if cfg.Progress != nil {
			sayMu.Lock()
			cfg.Progress(fmt.Sprintf(format, args...))
			sayMu.Unlock()
		}
	}
	// Rows run on the sched pool. A valid checkpointed row is returned
	// without re-measuring and a freshly measured successful row is
	// persisted atomically. superviseRow converts every failure mode (error,
	// panic, deadline) into a row with Err set, so the pool's fn never
	// errors and every classifier always yields a row, committed in paper
	// order.
	rows, tel, err := sched.Map(ctx, sched.Config{Jobs: cfg.Slots, Seed: cfg.Seed}, corpus.Classifiers,
		func(_ sched.Task, name string) (Table4Row, error) {
			if row, ok := loadCheckpoint(cfg.CheckpointDir, name); ok {
				say("%s: resumed from checkpoint", name)
				return row, nil
			}
			row := superviseRow(ctx, name, data, feats, labels, cfg, say)
			if row.Err == "" {
				if err := saveCheckpoint(cfg.CheckpointDir, row); err != nil {
					say("%s: checkpoint not written: %v", name, err)
				}
			}
			return row, nil
		})
	if cfg.OnTelemetry != nil {
		cfg.OnTelemetry(tel)
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FailedRows filters the rows the supervised runner could not measure.
func FailedRows(rows []Table4Row) []Table4Row {
	var out []Table4Row
	for _, r := range rows {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// superviseRow runs one classifier's pipeline in a child goroutine guarded
// by panic recovery and the configured deadline. A timed-out pipeline is
// abandoned (its goroutine drains into a buffered channel); the row reports
// the deadline instead of blocking the run.
func superviseRow(ctx context.Context, name string, data *dataset.Dataset, feats [][]float64, labels []int64, cfg Table4Config, say func(string, ...any)) Table4Row {
	type outcome struct {
		row Table4Row
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		if cfg.RowHook != nil {
			if err := cfg.RowHook(name); err != nil {
				done <- outcome{err: err}
				return
			}
		}
		row, err := table4Row(ctx, name, data, feats, labels, cfg, say)
		done <- outcome{row: row, err: err}
	}()

	var deadline <-chan time.Time
	if cfg.RowTimeout > 0 {
		timer := time.NewTimer(cfg.RowTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case out := <-done:
		if out.err != nil {
			say("%s: FAILED: %v", name, out.err)
			return Table4Row{Classifier: name, Err: out.err.Error()}
		}
		return out.row
	case <-deadline:
		say("%s: deadline %v exceeded; row abandoned", name, cfg.RowTimeout)
		return Table4Row{Classifier: name, Err: fmt.Sprintf("deadline exceeded (%v)", cfg.RowTimeout)}
	}
}

// checkpointPath names one classifier's persisted row.
func checkpointPath(dir, name string) string {
	return filepath.Join(dir, name+".json")
}

// loadCheckpoint restores a previously completed row. Corrupt or mismatched
// files are ignored — the row is simply re-measured.
func loadCheckpoint(dir, name string) (Table4Row, bool) {
	if dir == "" {
		return Table4Row{}, false
	}
	blob, err := os.ReadFile(checkpointPath(dir, name))
	if err != nil {
		return Table4Row{}, false
	}
	var row Table4Row
	if err := json.Unmarshal(blob, &row); err != nil || row.Classifier != name || row.Err != "" {
		return Table4Row{}, false
	}
	return row, true
}

// saveCheckpoint persists a completed row. Only successful rows are written,
// so a rerun retries exactly the failures. The write is atomic (temp file +
// rename): a process death mid-write leaves the previous bytes — or no
// file — never a truncated checkpoint that would poison resume.
func saveCheckpoint(dir string, row Table4Row) error {
	if dir == "" {
		return nil
	}
	blob, err := json.MarshalIndent(row, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(checkpointPath(dir, row.Classifier), append(blob, '\n'), 0o644)
}

// atomicWriteFile writes data to path via a temp file in the same directory
// plus rename, so readers never observe a torn write: they see the old bytes
// or the new bytes, never a truncated file.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
