package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"jepo/internal/core"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/profile"
	"jepo/internal/rapl"
	"jepo/internal/refactor"
	"jepo/internal/sched"
	"jepo/internal/service"
	"jepo/internal/tables"
)

// sessionSize sizes the session workload: a closed loop of Clients
// clients, one session each, each making Rounds rounds of five requests.
// Two clients on one slot make gate queueing show in the tail, and 2×22×5
// = 220 requests per run leave ten samples beyond the 95th percentile.
type sessionSize struct {
	Clients, Rounds, ASTChecks int
}

var (
	sessionFull = sessionSize{Clients: 2, Rounds: 22, ASTChecks: 2}
	sessionTiny = sessionSize{Clients: 2, Rounds: 2, ASTChecks: 1}
)

// roundKinds are one round's requests, in order: an edit, a cold analyze
// (the edit misses the store), the same analyze again (it should hit),
// profile and optimize.
var roundKinds = []string{"put", "analyze_cold", "analyze_warm", "profile", "optimize"}

type reqKey struct {
	client, round int
	kind          string
}

// reqRecord is one request as the client saw it. For a streamed request
// the queued, running and result times are the arrival times of those
// events.
type reqRecord struct {
	key                                 reqKey
	start, queued, running, result, end time.Time
	ok                                  bool
	output                              string
}

// sessionBench drives an in-process jepod (service.New behind an httptest
// loopback listener, one slot, one job, the default cache) with a closed
// loop of IDE-style clients, each waiting for every reply.
type sessionBench struct {
	size     sessionSize
	astSeed  uint64
	programs [][]string // [client][round] Main.java, the same on every run

	svc *service.Service
	ts  *httptest.Server
	ids []string
	tr  *tracer // set for the traced pass

	digests  map[reqKey]string         // first digest read per response
	readings map[reqKey]map[string]int // every digest read per response, counted
	lat      []float64                 // every request's latency in ms, all runs
	last     []reqRecord               // the last run's requests
	gate     sched.GateStats
	store    engine.Stats

	mutate func(string) string
}

func newSessionBench(seed uint64, tiny bool) (*sessionBench, error) {
	size := sessionFull
	if tiny {
		size = sessionTiny
	}
	var ineff []string
	for _, b := range tables.InterpBenches() {
		if strings.HasSuffix(b.Name, "/inefficient") {
			ineff = append(ineff, b.Src)
		}
	}
	if len(ineff) < 3 {
		return nil, fmt.Errorf("session: need three inefficient Table I variants, have %d", len(ineff))
	}
	s := deriveSeed(seed, 3)
	b := &sessionBench{size: size, astSeed: s, digests: map[reqKey]string{}, readings: map[reqKey]map[string]int{}}
	b.programs = make([][]string, size.Clients)
	for p, src := range genPrograms(rand.New(rand.NewPCG(s, 0)), ineff, size.Clients*size.Rounds) {
		b.programs[p%size.Clients] = append(b.programs[p%size.Clients], src)
	}
	return b, nil
}

// Loop bounds of the Table I variants are scaled to a quarter, then by a
// seeded factor within ±10%.
const (
	boundScale  = 0.25
	boundJitter = 0.10
)

var loopBound = regexp.MustCompile(`<\s*(\d+);`)

// genPrograms builds n runnable Main.java files, each mixing three
// inefficient Table I variants. The mixes follow a fixed cyclic design —
// program i holds variants i, i+1 and i+2 in Table I order — so every
// variant appears equally often beside the same neighbours, whatever the
// seed. A cold analyze measures every fix by re-running the whole program,
// so its cost couples the variants of one mix; with the mixes fixed, the
// seed moves the inputs (loop bounds, class order, which client sends which
// program when) but not the amount of work, and runs on different seeds
// measure the same thing.
func genPrograms(r *rand.Rand, variants []string, n int) []string {
	// Each variant's occurrences get the evenly spread factors of the
	// jitter range, in seeded order.
	occurrences := make([]int, len(variants))
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			occurrences[(i+j)%len(variants)]++
		}
	}
	factors := make([][]float64, len(variants))
	for v, k := range occurrences {
		for i := 0; i < k; i++ {
			f := 1.0
			if k > 1 {
				f = 1 - boundJitter + 2*boundJitter*float64(i)/float64(k-1)
			}
			factors[v] = append(factors[v], boundScale*f)
		}
		r.Shuffle(k, func(i, j int) { factors[v][i], factors[v][j] = factors[v][j], factors[v][i] })
	}
	programs := make([]string, n)
	for i := range programs {
		mix := []int{i % len(variants), (i + 1) % len(variants), (i + 2) % len(variants)}
		r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		var sb strings.Builder
		for j, v := range mix {
			f := factors[v][0]
			factors[v] = factors[v][1:]
			src := strings.Replace(variants[v], "class B {", fmt.Sprintf("class B%d {", j), 1)
			src = loopBound.ReplaceAllStringFunc(src, func(m string) string {
				n, _ := strconv.Atoi(loopBound.FindStringSubmatch(m)[1]) // the pattern admits digits only
				return fmt.Sprintf("< %d;", max(1, int(math.Round(float64(n)*f))))
			})
			sb.WriteString(src)
			sb.WriteString("\n")
		}
		sb.WriteString("class Main {\n\tpublic static void main(String[] args) {\n" +
			"\t\tdouble total = B0.f() + B1.f() + B2.f();\n\t\tSystem.out.println(total);\n\t}\n}\n")
		programs[i] = sb.String()
	}
	r.Shuffle(n, func(i, j int) { programs[i], programs[j] = programs[j], programs[i] })
	return programs
}

// setup starts a fresh daemon, as a jepod process start would: a fresh
// process-wide store (optimize requests use it), the service, the listener,
// and one session per client.
func (b *sessionBench) setup(ctx context.Context) error {
	engine.SetDefault(engine.New(engine.Config{}))
	b.svc = service.New(service.Config{Slots: 1, Jobs: 1, MaxQueue: b.size.Clients})
	b.ts = httptest.NewServer(service.Handler(b.svc))
	b.ids = b.ids[:0]
	for i := 0; i < b.size.Clients; i++ {
		body, status, err := b.do(ctx, "POST", "/v1/sessions", "")
		if err != nil || status != http.StatusCreated {
			b.teardown()
			return fmt.Errorf("open session: status %d: %v", status, err)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &created); err != nil {
			b.teardown()
			return fmt.Errorf("open session: %w", err)
		}
		b.ids = append(b.ids, created.ID)
	}
	return nil
}

func (b *sessionBench) teardown() {
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
	if b.svc != nil {
		b.svc.Close()
		b.svc = nil
	}
}

// do makes one plain request and returns its body and status.
func (b *sessionBench) do(ctx context.Context, method, path, body string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	resp, err := b.ts.Client().Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), resp.StatusCode, err
}

// stream makes one request in SSE mode, noting when each event arrives.
func (b *sessionBench) stream(ctx context.Context, path, body string, rec *reqRecord) {
	req, err := http.NewRequestWithContext(ctx, "POST", b.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := b.ts.Client().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // the status alone fails the request
		return
	}
	r := bufio.NewReader(resp.Body)
	event, failed, done := "", false, false
	for {
		line, err := r.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			now := time.Now()
			switch event {
			case "progress":
				var ev service.Event
				if json.Unmarshal([]byte(data), &ev) != nil {
					failed = true
				}
				switch ev.Stage {
				case "queued":
					rec.queued = now
				case "running":
					rec.running = now
				case "error":
					failed = true
				}
			case "result":
				var res struct {
					Output string `json:"output"`
				}
				if json.Unmarshal([]byte(data), &res) != nil {
					failed = true
				}
				rec.result, rec.output, done = now, res.Output, true
			default:
				failed = true
			}
		} else if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return
		}
	}
	rec.ok = done && !failed
}

// request makes one request of a round and records it, with spans when
// the pass is traced.
func (b *sessionBench) request(ctx context.Context, lane, ci, k int, kind, body string) reqRecord {
	rec := reqRecord{key: reqKey{ci, k, kind}, start: time.Now()}
	span := b.tr.begin("http.request", fmt.Sprintf("%s.r%d.%s", b.ids[ci], k, kind), lane)
	base := "/v1/sessions/" + b.ids[ci]
	switch kind {
	case "put":
		_, status, err := b.do(ctx, "PUT", base+"/files/Main.java", b.programs[ci][k])
		rec.ok = err == nil && status == http.StatusNoContent
	case "analyze_cold", "analyze_warm", "analyze_ast":
		b.stream(ctx, base+"/analyze", body, &rec)
	default:
		b.stream(ctx, base+"/"+kind, body, &rec)
	}
	rec.end = time.Now()
	b.tr.end(span)
	if rec.ok && kind != "put" {
		b.tr.add("service.gate_wait", "", span, rec.queued, rec.running)
		b.tr.add("service.run", "", span, rec.running, rec.result)
	}
	return rec
}

func (b *sessionBench) run(ctx context.Context) (tally, error) {
	recs := make([][]reqRecord, len(b.ids))
	var wg sync.WaitGroup
	for ci := range b.ids {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			lane := b.tr.begin("bench.client", b.ids[ci], -1)
			defer b.tr.end(lane)
			for k := 0; k < b.size.Rounds; k++ {
				for _, kind := range roundKinds {
					recs[ci] = append(recs[ci], b.request(ctx, lane, ci, k, kind, ""))
				}
			}
		}(ci)
	}
	wg.Wait()
	b.gate, b.store = b.svc.GateStats(), b.svc.Store().Stats()
	b.last = b.last[:0]
	var t tally
	for _, rs := range recs {
		for _, rec := range rs {
			b.last = append(b.last, rec)
			b.lat = append(b.lat, ms(rec.end.Sub(rec.start)))
			t.Attempted++
			if !b.check(rec) {
				t.Failed++
			}
		}
	}
	return t, nil
}

// check accepts a response that succeeded and records the digest of its
// output; verify holds every reading against the service's uncached
// rendering.
func (b *sessionBench) check(rec reqRecord) bool {
	if !rec.ok {
		return false
	}
	if rec.key.kind == "put" {
		return true
	}
	out := rec.output
	if b.mutate != nil {
		out = b.mutate(out)
	}
	d := digest(out)
	if _, ok := b.digests[rec.key]; !ok {
		b.digests[rec.key] = d
		b.readings[rec.key] = map[string]int{}
	}
	b.readings[rec.key][d]++
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (b *sessionBench) layerCounts() counts {
	c := counts{
		"engine.hits":         float64(b.store.Hits),
		"engine.misses":       float64(b.store.Misses),
		"engine.evictions":    float64(b.store.Evictions),
		"engine.parses":       float64(b.store.Parses),
		"sched.gate_waited":   float64(b.gate.Waited),
		"sched.gate_rejected": float64(b.gate.Rejected),
	}
	var waits, runs, overheads, all []float64
	perKind := map[string][]float64{}
	for _, rec := range b.last {
		lat := ms(rec.end.Sub(rec.start))
		all = append(all, lat)
		if !rec.ok {
			continue
		}
		perKind[rec.key.kind] = append(perKind[rec.key.kind], lat)
		if rec.key.kind != "put" {
			waits = append(waits, ms(rec.running.Sub(rec.queued)))
			runs = append(runs, ms(rec.result.Sub(rec.running)))
			overheads = append(overheads, lat-ms(rec.result.Sub(rec.queued)))
		}
	}
	// Means, so that gate wait, service run and HTTP overhead add up to the
	// mean latency of the streamed requests.
	c["service.gate_wait_ms"] = mean(waits)
	c["service.run_ms"] = mean(runs)
	c["http.overhead_ms"] = mean(overheads)
	for kind, xs := range perKind {
		if v, ok := percentile(xs, 0.50); ok {
			c["service."+kind+"_p50_ms"] = v
		}
	}
	if v, ok := percentile(all, 0.50); ok {
		c["service.req_p50_ms"] = v
	}
	if v, ok := percentile(all, 0.95); ok {
		c["service.req_p95_ms"] = v
	}
	return c
}

func (b *sessionBench) requestLatencies() []float64 { return b.lat }

// verify holds every rendered response against the service's direct
// rendering on a store built with caching disabled, then re-requests a
// seeded sample of analyzes with the tree-walking interpreter, an
// independent implementation of the same cost model, whose answer must
// agree.
func (b *sessionBench) verify(ctx context.Context) (tally, error) {
	direct, t, err := b.directOutputs(ctx)
	if err != nil {
		return tally{}, err
	}
	if err := b.setup(ctx); err != nil {
		return tally{}, err
	}
	defer b.teardown()
	r := rand.New(rand.NewPCG(b.astSeed, 1))
	for i := 0; i < b.size.ASTChecks; i++ {
		ci, k := r.IntN(b.size.Clients), r.IntN(b.size.Rounds)
		put := b.request(ctx, -1, ci, k, "put", "")
		ast := b.request(ctx, -1, ci, k, "analyze_ast", `{"engine":"ast"}`)
		t.Attempted += 2
		if !put.ok {
			t.Failed++
		}
		if !ast.ok || digest(ast.output) != direct[reqKey{ci, k, "analyze_cold"}] {
			t.Failed++
		}
	}
	return t, nil
}

// directOutputs renders every program through the service without HTTP
// and without any cache, and counts the responses that disagreed.
func (b *sessionBench) directOutputs(ctx context.Context) (map[reqKey]string, tally, error) {
	prev := engine.SetDefault(engine.New(engine.Config{Disabled: true}))
	defer engine.SetDefault(prev)
	svc := service.New(service.Config{Cache: engine.Config{Disabled: true}, Slots: 1, Jobs: 1})
	defer svc.Close()
	s, err := svc.CreateSession()
	if err != nil {
		return nil, tally{}, err
	}
	direct := map[reqKey]string{}
	var t tally
	for ci, progs := range b.programs {
		for k, src := range progs {
			if err := s.PutFile("Main.java", src); err != nil {
				return nil, tally{}, err
			}
			outs := map[string]string{}
			if a, err := s.Analyze(ctx, service.Request{}, nil); err == nil {
				outs["analyze_cold"], outs["analyze_warm"] = a.Output, a.Output
			}
			if p, err := s.Profile(ctx, service.Request{}, nil); err == nil {
				outs["profile"] = p.Output
			}
			if o, err := s.Optimize(ctx, service.Request{}, nil); err == nil {
				outs["optimize"] = o.Output
			}
			for _, kind := range roundKinds[1:] {
				key := reqKey{ci, k, kind}
				out, ok := outs[kind]
				if ok {
					direct[key] = digest(out)
				}
				for d, n := range b.readings[key] {
					if !ok || d != digest(out) {
						t.Failed += n
					}
				}
			}
		}
	}
	return direct, t, nil
}

// replay makes one traced pass of the same requests on a fresh daemon,
// with a span per request split at the arrival of its queued, running and
// result events; then it re-drives each program's analyze, profile and
// optimize layer by layer, and their renderings must equal the responses.
func (b *sessionBench) replay(ctx context.Context, tr *tracer, c counts) (tally, time.Duration, error) {
	if err := b.setup(ctx); err != nil {
		return tally{}, 0, err
	}
	b.tr = tr
	t0 := time.Now()
	t, err := b.run(ctx)
	wall := time.Since(t0)
	b.tr = nil
	b.teardown()
	if err != nil {
		return tally{}, 0, err
	}

	root := tr.begin("bench.replay", "", -1)
	defer tr.end(root)
	eng := engine.New(engine.Config{})
	for ci, progs := range b.programs {
		for k, src := range progs {
			srcs := []engine.Source{{Path: "Main.java", Source: src}}
			outs := map[string]string{}
			err := tr.within("bench.program", fmt.Sprintf("c%d.r%d", ci, k), root, func(p int) error {
				rep, err := replayAnalyze(ctx, tr, p, c, eng, srcs)
				if err != nil {
					return err
				}
				_ = tr.within("core.render", "", p, func(int) error {
					outs["analyze_cold"] = service.RenderAnalyze(rep)
					return nil
				})
				if outs["profile"], err = replayProfile(ctx, tr, p, c, eng, srcs); err != nil {
					return err
				}
				outs["optimize"], err = replayOptimize(tr, p, c, eng, srcs)
				return err
			})
			if err != nil {
				return tally{}, 0, fmt.Errorf("replay c%d.r%d: %w", ci, k, err)
			}
			for _, kind := range []string{"analyze_cold", "profile", "optimize"} {
				t.Attempted++
				if digest(outs[kind]) != b.digests[reqKey{ci, k, kind}] {
					t.Failed++
				}
			}
		}
	}
	return t, wall, nil
}

// replayProfile re-drives core.Profile: parse, probe injection, load, and
// the run under the profiler.
func replayProfile(ctx context.Context, tr *tracer, parent int, c counts, eng *engine.Engine, srcs []engine.Source) (string, error) {
	files, err := parse(tr, parent, c, eng, srcs)
	if err != nil {
		return "", err
	}
	_ = tr.within("profile.inject", "", parent, func(int) error {
		instrument.Inject(files...)
		return nil
	})
	meter := energy.NewMeter(energy.DefaultCosts())
	prof := profile.New(rapl.NewSimSource(meter), func() time.Duration { return meter.Snapshot().Elapsed })
	in, sample, err := execMain(ctx, tr, parent, c, files, meter, interp.WithHook(prof))
	if err == nil {
		err = prof.Err()
	}
	if err != nil {
		return "", err
	}
	var out string
	_ = tr.within("core.render", "", parent, func(int) error {
		out = service.RenderProfile(&core.ProfileResult{Profiler: prof, Stdout: in.Output(), Sample: sample})
		return nil
	})
	return out, nil
}

// replayOptimize re-drives core.Optimize: parse, refactor, print.
func replayOptimize(tr *tracer, parent int, c counts, eng *engine.Engine, srcs []engine.Source) (string, error) {
	files, err := parse(tr, parent, c, eng, srcs)
	if err != nil {
		return "", err
	}
	var res *refactor.Result
	_ = tr.within("passes.refactor", "", parent, func(int) error {
		res = refactor.Apply(files)
		return nil
	})
	c["passes.changes"] += float64(res.Changes)
	var out string
	_ = tr.within("core.render", "", parent, func(int) error {
		p := make(core.Project, len(files))
		for _, f := range files {
			p[f.Path] = ast.Print(f)
		}
		out = service.RenderOptimize(p, res)
		return nil
	})
	return out, nil
}
