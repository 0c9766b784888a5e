package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jepo/internal/core"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
)

// workSrc is a runnable program with measurable fixes (modulus masking).
const workSrc = `class Work {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 200; i++) {
			total = total + i % 8;
		}
		System.out.println(total);
	}
}`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	return svc
}

func openSession(t *testing.T, svc *Service) *Session {
	t.Helper()
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("Work.java", workSrc); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionLifecycle(t *testing.T) {
	svc := newTestService(t, Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Session(s.ID()); err != nil || got != s {
		t.Fatalf("Session(%q) = %v, %v", s.ID(), got, err)
	}
	if err := s.PutFile("a/B.java", "class B { }"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile("../escape.java", "class E { }"); err == nil {
		t.Error("PutFile accepted a path escaping the session")
	}
	if err := s.PutFile("/abs.java", "class A { }"); err == nil {
		t.Error("PutFile accepted an absolute path")
	}
	if files := s.Files(); len(files) != 1 || files[0] != "a/B.java" {
		t.Errorf("Files() = %v", files)
	}
	if err := s.DeleteFile("a/B.java"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteFile("a/B.java"); err == nil {
		t.Error("DeleteFile of a missing file succeeded")
	}
	s.Close()
	if _, err := svc.Session(s.ID()); !errors.Is(err, ErrNoSession) {
		t.Errorf("closed session still resolvable: %v", err)
	}
	if err := s.PutFile("x.java", "class X { }"); !errors.Is(err, ErrClosed) {
		t.Errorf("PutFile on closed session: %v", err)
	}
}

// TestAnalyzeMatchesCLI asserts the contract the daemon is built on: a
// session analyze renders byte-identically to the CLI path (core.Analyze +
// RenderAnalyze over the same sources).
func TestAnalyzeMatchesCLI(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	res, err := s.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(context.Background(), core.Project{"Work.java": workSrc}, core.AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderAnalyze(rep); res.Output != want {
		t.Errorf("service output diverges from CLI rendering:\n--- service ---\n%s\n--- cli ---\n%s", res.Output, want)
	}
	if !strings.Contains(res.Output, "diagnostic(s)") {
		t.Errorf("output missing summary line:\n%s", res.Output)
	}
}

// TestSessionsShareStore asserts two sessions with identical sources share
// cached artifacts: the second analyze hits the store the first one filled.
func TestSessionsShareStore(t *testing.T) {
	svc := newTestService(t, Config{})
	a := openSession(t, svc)
	if _, err := a.Analyze(context.Background(), Request{}, nil); err != nil {
		t.Fatal(err)
	}
	cold := svc.Store().Stats()
	b := openSession(t, svc)
	out2, err := b.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := svc.Store().Stats()
	if warm.Hits <= cold.Hits {
		t.Errorf("second session did not hit the shared store: cold=%+v warm=%+v", cold, warm)
	}
	out1, err := a.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Output != out2.Output {
		t.Error("identical sessions produced different outputs")
	}
}

// TestEvents asserts the progress stream's shape: queued, running, then a
// telemetry event and done, with monotonically increasing sequence numbers.
func TestEvents(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	var events []Event
	if _, err := s.Analyze(context.Background(), Request{}, func(ev Event) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want >= 3: %v", len(events), events)
	}
	if events[0].Stage != "queued" || events[1].Stage != "running" {
		t.Errorf("event prefix = %s, %s; want queued, running", events[0].Stage, events[1].Stage)
	}
	if last := events[len(events)-1]; last.Stage != "done" {
		t.Errorf("final event = %v, want done", last)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestOpBudget asserts a starved per-request budget fails the request and
// does NOT poison the shared store: the same request at a workable budget
// succeeds afterwards.
func TestOpBudget(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	if _, err := s.Analyze(context.Background(), Request{MaxOps: 10}, nil); err != nil {
		t.Fatalf("tiny budget must not error the analyze itself (it marks the program non-runnable): %v", err)
	}
	res, err := s.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Executable {
		t.Errorf("default-budget analyze inherited the starved verdict: %s", res.Report.ExecNote)
	}
}

// TestProfileBudget asserts the op budget flows into profile runs.
func TestProfileBudget(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	if _, err := s.Profile(context.Background(), Request{MaxOps: 10}, nil); err == nil {
		t.Fatal("profile under a 10-op budget succeeded")
	}
	res, err := s.Profile(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultTxt == "" {
		t.Error("profile returned no result.txt content")
	}
	if !strings.Contains(res.Output, "measurement health:") {
		t.Errorf("profile output missing health line:\n%s", res.Output)
	}
}

func TestOptimize(t *testing.T) {
	svc := newTestService(t, Config{})
	s := openSession(t, svc)
	res, err := s.Optimize(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes == 0 {
		t.Error("optimize applied no changes to a program with a modulus-power-of-two loop")
	}
	if !strings.Contains(res.Output, "applied") {
		t.Errorf("output missing summary:\n%s", res.Output)
	}
	// The session's own files must be untouched.
	if files := s.Files(); len(files) != 1 {
		t.Errorf("optimize mutated the session file set: %v", files)
	}
}

// TestAdmissionShedsWhenSaturated asserts the gate's shed path: with one
// slot held and no queue, a second request fails fast with ErrSaturated.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 0})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Analyze(context.Background(), Request{}, nil)
	release()
	if !errors.Is(err, sched.ErrSaturated) {
		t.Fatalf("saturated gate returned %v, want ErrSaturated", err)
	}
	// With the slot free again the same request succeeds.
	if _, err := s.Analyze(context.Background(), Request{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueues asserts a queued request waits for the slot instead
// of shedding, and runs once the holder releases.
func TestAdmissionQueues(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 4})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan struct{})
	var res *AnalyzeResult
	var aerr error
	go func() {
		defer wg.Done()
		res, aerr = s.Analyze(context.Background(), Request{}, func(ev Event) {
			if ev.Stage == "queued" {
				close(queued)
			}
		})
	}()
	<-queued
	// Give the goroutine time to reach the gate, then free the slot.
	time.Sleep(10 * time.Millisecond)
	release()
	wg.Wait()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if res == nil || res.Output == "" {
		t.Fatal("queued request produced no output")
	}
	if st := svc.GateStats(); st.Waited == 0 {
		t.Errorf("gate stats recorded no waiter: %+v", st)
	}
}

// TestCancelQueuedRequest asserts cancelling a queued request's context
// unblocks it with the context error and leaves the gate consistent.
func TestCancelQueuedRequest(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: 4})
	s := openSession(t, svc)

	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, aerr := s.Analyze(ctx, Request{}, nil)
		done <- aerr
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case aerr := <-done:
		if !errors.Is(aerr, context.Canceled) {
			t.Fatalf("cancelled queued request returned %v", aerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request never returned")
	}
	if st := svc.GateStats(); st.Queued != 0 {
		t.Errorf("cancelled waiter still counted as queued: %+v", st)
	}
}

// TestCancelRunningRequest asserts cancelling mid-analysis aborts the
// interpreter loop and the session stays usable.
func TestCancelRunningRequest(t *testing.T) {
	svc := newTestService(t, Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	// A long loop so cancellation lands mid-interpretation.
	if err := s.PutFile("Spin.java", `class Spin {
	public static void main(String[] args) {
		long total = 0;
		for (int i = 0; i < 100000000; i++) {
			total = total + i % 7;
		}
		System.out.println(total);
	}
}`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, aerr := s.Analyze(ctx, Request{}, nil)
		done <- aerr
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case aerr := <-done:
		if !errors.Is(aerr, context.Canceled) {
			t.Fatalf("cancelled analyze returned %v, want context.Canceled", aerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled analyze never returned")
	}
	// The session — and the shared store — survive the cancellation.
	if _, err := s.Analyze(context.Background(), Request{MaxOps: 1_000_000_000}, nil); err != nil {
		t.Fatalf("session unusable after a cancelled request: %v", err)
	}
}

func TestTables(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := svc.Table(context.Background(), 2, DefaultTableSeed, Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Output, "=== Table II: WEKA classifier metrics ===\n") {
		t.Errorf("table 2 output missing header:\n%.80s", res.Output)
	}
	if _, err := svc.Table(context.Background(), 9, 0, Request{}, nil); err == nil {
		t.Error("unknown table number accepted")
	}
}

func TestServiceClose(t *testing.T) {
	svc := New(Config{})
	s, err := svc.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.CreateSession(); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateSession after Close: %v", err)
	}
	if err := s.PutFile("x.java", "class X { }"); !errors.Is(err, ErrClosed) {
		t.Errorf("PutFile after service Close: %v", err)
	}
}

// TestResolveCeilings pins resolve's arithmetic: the service's jobs and op
// budget are defaults and ceilings at once.
func TestResolveCeilings(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		req    Request
		jobs   int
		maxOps int64
	}{
		{"defaults", Config{Jobs: 2, MaxOps: 100}, Request{}, 2, 100},
		{"over both ceilings", Config{Jobs: 2, MaxOps: 100}, Request{Jobs: 64, MaxOps: 1 << 40}, 2, 100},
		{"under both ceilings", Config{Jobs: 2, MaxOps: 100}, Request{Jobs: 1, MaxOps: 7}, 1, 7},
		{"op budget ceiling defaults to interp.DefaultMaxOps", Config{Jobs: 2}, Request{MaxOps: 1 << 40}, 2, interp.DefaultMaxOps},
		{"jobs ceiling is GOMAXPROCS", Config{}, Request{Jobs: 1 << 20}, runtime.GOMAXPROCS(0), 0},
	}
	for _, tc := range cases {
		svc := newTestService(t, tc.cfg)
		_, jobs, maxOps, err := svc.resolve(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if jobs != tc.jobs || maxOps != tc.maxOps {
			t.Errorf("%s: resolve(%+v) under %+v = jobs %d, max_ops %d; want %d, %d",
				tc.name, tc.req, tc.cfg, jobs, maxOps, tc.jobs, tc.maxOps)
		}
	}
}
