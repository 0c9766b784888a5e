package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func do(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func createHTTPSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/v1/sessions", "", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// TestHTTPAnalyzeRaw is the serve gate's identity contract in miniature:
// the raw response body equals the CLI rendering, byte for byte. Four
// sessions with distinct sources fire their analyze requests concurrently,
// twice: the first round builds every artifact cold, the second meets a
// warm shared store. Every body must equal that session's direct rendering.
func TestHTTPAnalyzeRaw(t *testing.T) {
	const sessions = 4
	svc, ts := newTestServer(t, Config{Slots: sessions, MaxQueue: 16})
	ids := make([]string, sessions)
	for k := range ids {
		ids[k] = createHTTPSession(t, ts)
		src := strings.Replace(workSrc, "i < 200", fmt.Sprintf("i < %d", 200+97*k), 1)
		resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+ids[k]+"/files/Work.java", src, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put file: %d %s", resp.StatusCode, body)
		}
	}

	rounds := [2][sessions]string{}
	for round := range rounds {
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for k, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/analyze", "", nil)
				if err != nil {
					errs[k] = err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("analyze: %d %s", resp.StatusCode, b)
				}
				rounds[round][k], errs[k] = string(b), err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	seen := map[string]string{}
	for k, id := range ids {
		s, err := svc.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.Analyze(context.Background(), Request{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct sources must render distinctly, or a crossed response
		// would pass unnoticed.
		if other, dup := seen[direct.Output]; dup {
			t.Fatalf("sessions %s and %s render identically", other, id)
		}
		seen[direct.Output] = id
		for round, name := range []string{"cold", "warm"} {
			if body := rounds[round][k]; body != direct.Output {
				t.Errorf("session %s, %s round: HTTP raw body diverges from service output:\n--- http ---\n%s\n--- direct ---\n%s",
					id, name, body, direct.Output)
			}
		}
	}
}

// TestHTTPSSE asserts the streaming mode: progress events precede exactly
// one result event whose output matches the raw mode.
func TestHTTPSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createHTTPSession(t, ts)
	if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+id+"/analyze", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var stages []string
	var resultOutput string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				stages = append(stages, ev.Stage)
			}
			if event == "result" {
				var res struct {
					Output string `json:"output"`
				}
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					t.Fatalf("bad result payload: %v", err)
				}
				resultOutput = res.Output
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(stages) < 3 || stages[0] != "queued" || stages[1] != "running" {
		t.Errorf("SSE stages = %v", stages)
	}
	if resultOutput == "" {
		t.Fatal("no result event received")
	}
	// The streamed result matches the raw mode byte for byte.
	if _, raw := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil); raw != resultOutput {
		t.Error("SSE result output diverges from raw mode")
	}
}

func TestHTTPTable2Raw(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := do(t, "POST", ts.URL+"/v1/tables/2", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table 2: %d %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "=== Table II: WEKA classifier metrics ===\n") {
		t.Errorf("table 2 body missing header:\n%.80s", body)
	}
	if resp, _ := do(t, "POST", ts.URL+"/v1/tables/9", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("table 9: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/nope/analyze", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	id := createHTTPSession(t, ts)
	// Empty session: analyze is a 400.
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty session analyze: status %d, want 400", resp.StatusCode)
	}
	// Malformed request body.
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "{not json", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", resp.StatusCode)
	}
	// A negative op budget would switch the budget off: rejected before
	// anything runs. The session holds a file so the budget is the only fault.
	if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}
	resp, body := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", `{"max_ops":-1}`, nil)
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal([]byte(body), &e) != nil || e.Error == "" {
		t.Errorf("max_ops -1: status %d body %q, want 400 with a JSON error", resp.StatusCode, body)
	}
	// Delete, then the session is gone.
	if resp, _ := do(t, "DELETE", ts.URL+"/v1/sessions/"+id, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete session: status %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/files", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("files of deleted session: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSaturated asserts the gate's shed path surfaces as 503.
func TestHTTPSaturated(t *testing.T) {
	svc, ts := newTestServer(t, Config{Slots: 1, MaxQueue: 0})
	id := createHTTPSession(t, ts)
	if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}
	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil)
	release()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated analyze: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := do(t, "GET", ts.URL+"/v1/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Gate     map[string]int `json:"gate"`
		Cache    string         `json:"cache"`
		Sessions int            `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache == "" {
		t.Error("stats missing cache line")
	}
}

// TestHTTPKnobCeilings pins that the daemon's op budget is a ceiling as well
// as a default: a request may lower it but never raise it. Profile fails
// under a starved budget, and its error names the budget the run actually
// had.
func TestHTTPKnobCeilings(t *testing.T) {
	cases := []struct {
		name    string
		ceiling int64 // Config.MaxOps
		body    string
		want    string // substring of the JSON error; "" = success
	}{
		{"over the ceiling runs at the ceiling", 10, `{"max_ops":1000000000}`, "op budget of 10 exceeded"},
		{"unset takes the ceiling", 10, ``, "op budget of 10 exceeded"},
		{"under the ceiling is honoured", 1_000_000_000, `{"max_ops":10}`, "op budget of 10 exceeded"},
		{"no ceiling leaves the request as is", 0, `{"max_ops":10}`, "op budget of 10 exceeded"},
		{"at a workable ceiling succeeds", 1_000_000_000, `{"max_ops":2000000000}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{MaxOps: tc.ceiling})
			id := createHTTPSession(t, ts)
			if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("put file: %d %s", resp.StatusCode, body)
			}
			resp, body := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/profile", tc.body, nil)
			if tc.want == "" {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("profile: status %d body %q, want 200", resp.StatusCode, body)
				}
				return
			}
			var e struct {
				Error string `json:"error"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal([]byte(body), &e) != nil || !strings.Contains(e.Error, tc.want) {
				t.Errorf("profile: status %d body %q, want 400 with an error containing %q", resp.StatusCode, body, tc.want)
			}
		})
	}
}

// TestHTTPBodyTooLarge pins the request-size bound on both body readers: an
// uploaded file and a Request document over MaxBodyBytes get 413 with a JSON
// error, and nothing is stored.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createHTTPSession(t, ts)
	huge := strings.Repeat("x", MaxBodyBytes+1)
	for _, c := range []struct{ method, path string }{
		{"PUT", "/files/Big.java"},
		{"POST", "/analyze"},
	} {
		resp, body := do(t, c.method, ts.URL+"/v1/sessions/"+id+c.path, huge, nil)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal([]byte(body), &e) != nil || e.Error == "" {
			t.Errorf("%s %s: status %d body %.200q, want 413 with a JSON error", c.method, c.path, resp.StatusCode, body)
		}
	}
	if resp, body := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/files", "", nil); !strings.Contains(body, `"files":[]`) {
		t.Errorf("oversized upload was stored: %d %s", resp.StatusCode, body)
	}
}
