// Command servebench is the repository's serving benchmark. It stands up the
// shipped serving stack in process with speedserver's defaults — core.NewStore
// with core.DefaultOptions (unsharded, Jacobi BP), api.NewServerWith with
// 2×GOMAXPROCS in-flight estimates, a 10 s estimate deadline and metrics on —
// over a 1414-road city, drives it over loopback HTTP from two closed-loop
// estimate callers (plus one connection for writes on hot-refresh), checks
// every response, and prints every metric by name, unit and direction.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash servebench/run.sh --workload rush-closed --seed 1 --seconds 30 --trace 0
//
// Workloads: rush-closed and hot-refresh (see workloads in workload.go). With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it runs the same window twice, untraced and then traced, and
// reports the per-layer metrics of the traced pass plus the tracing overhead.
// The spans of a traced run are written to --trace-out when it ends.
//
// Every layer is measured from outside: the benchmark times its own calls into
// public functions (api.Server.ServeHTTP, core.NewStore, Store.SelectSeeds,
// Store.OnSwap) and reads per-pass deltas of the program's obs registry and of
// runtime/metrics; set-up deltas are taken separately.
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The command exits 1 when an output check
// fails or the run is invalid, and 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// setupRuns is how many times a run stands the stack up. setup_s is the
// median of them; the first, cold one is also reported on its own as
// setup_first_s, since the later ones find the process warm.
const setupRuns = 3

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int // set-ups in this run; setupRuns except in the package's own test
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: rush-closed or hot-refresh")
	fs.Int64Var(&cfg.seed, "seed", 1, "request-stream seed")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics; 1 runs an untraced and a traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/servebench-trace/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "servebench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = setupRuns
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "servebench-trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	rep, err := runBenchmark(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is what one invocation prints.
type runReport struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	lines    []string // human-readable report, printed before the JSON line
	accounts []kindAccount
}

func (r *runReport) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *runReport) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintln(w, string(raw))
}

// clients are the benchmark's HTTP clients: one connection per estimate
// caller and, on a workload that writes, one more that ingest and seed
// re-fetches share, so estimates never queue behind a seed selection or an
// ingest batch.
type clients struct {
	est     *http.Client
	updates *http.Client
}

func newClients(w workload) clients {
	conn := func(n int) *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		}}
	}
	cl := clients{est: conn(estCallers)}
	if w.refresh {
		cl.updates = conn(1)
	}
	return cl
}

func (c clients) closeIdle() {
	c.est.CloseIdleConnections()
	if c.updates != nil {
		c.updates.CloseIdleConnections()
	}
}

// runBenchmark runs one invocation: the city, the set-ups, the measured
// pass(es), the output checks and the metrics.
func runBenchmark(ctx context.Context, cfg config) (*runReport, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	c, err := buildCity()
	if err != nil {
		return nil, err
	}
	cl := newClients(w)
	defer cl.closeIdle()
	tr := &tracer{on: cfg.trace, epoch: time.Now()}

	// Set-up, several times: setup_s is the median, the last stack serves.
	var st *stack
	var setupDurs []float64
	setupBefore := readState()
	for i := 0; i < cfg.setups; i++ {
		s, d, err := setUp(ctx, c, cl.est, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupDurs = append(setupDurs, d.Seconds())
		if i < cfg.setups-1 {
			s.close()
			cl.closeIdle()
			continue
		}
		st = s
	}
	setupD := delta{setupBefore, readState()}
	defer st.close()
	runtime.GC()
	heapLive := readState().rtValue(rtHeapLive)

	var curPass atomic.Pointer[pass]
	st.store.OnSwap(func(old, v *core.View) {
		if p := curPass.Load(); p != nil {
			p.onSwap(old, v)
		}
	})
	ops := schedule(w, c, cfg.seed, float64(cfg.seconds))
	window := time.Duration(cfg.seconds) * time.Second
	runPass := func(ptr *tracer, seeds *seedSet) (*pass, delta) {
		p := newPass(c, w, st, cl, ptr, seeds)
		if ptr.on {
			st.handler.tr.Store(ptr)
		} else {
			st.handler.tr.Store(nil)
		}
		curPass.Store(p)
		before := readState()
		p.run(ctx, ops, window)
		after := readState()
		curPass.Store(nil)
		return p, delta{before, after}
	}

	rep := &runReport{Metrics: map[string]metricOut{}}
	rep.printf("servebench: workload=%s seed=%d seconds=%d trace=%d setups=%d roads=%d k=%d frames=%d gomaxprocs=%d",
		w.name, cfg.seed, cfg.seconds, b2i(cfg.trace), cfg.setups, c.roads, c.k, len(c.frames), runtime.GOMAXPROCS(0))
	rep.printf("workload %s: %s", w.name, w.why)

	seeds := &seedSet{version: st.store.View().Version(), roads: st.seeds}
	if w.refresh {
		// Only the serving stack's rebuild loop is armed; nothing is
		// ingested before the window opens.
		st.store.Start(core.StoreConfig{RebuildMinObs: refreshMinObs, IncrementalMaxDirtyFrac: incrementalFrac})
	}
	untraced, _ := runPass(&tracer{epoch: tr.epoch}, seeds)
	e2e := endToEnd(untraced, setupDurs, heapLive)
	var problems []string
	problems = append(problems, verify(ctx, untraced, e2e)...)
	rep.account(untraced, "untraced")

	if !cfg.trace {
		rep.printf("end-to-end metrics (untraced pass):")
		for _, m := range endToEndDefs {
			rep.put(m, e2e[m.name], "")
		}
		rep.printf("  (historical-mean baseline on the same frames and roads: %.6g m/s)", e2e["baseline_mae_mps"])
		rep.printf("set-up times of this run: %.6g s (setup_s is their median)", setupDurs)
		rep.printf("figures reported per layer: workload-specific end-to-end ones, since other workloads have none, and the cold set-up:")
		for _, name := range []string{"ingest_p99_s", "refresh_lag_p50_s", "setup_first_s"} {
			m := layerDef(name)
			rep.printf("  %-42s %14.6g %-9s %s", m.name, e2e[m.name], m.unit, m.better)
		}
	} else {
		traced, tracedD := runPass(tr, untraced.seeds.Load())
		te2e := endToEnd(traced, setupDurs, heapLive)
		problems = append(problems, verify(ctx, traced, te2e)...)
		rep.account(traced, "traced")
		layers := perLayer(traced, tracedD, setupD, te2e, e2e, st)
		rep.printf("per-layer metrics (traced pass; untraced estimate_p50_s %.6g s, traced %.6g s):", e2e["estimate_p50_s"], te2e["estimate_p50_s"])
		for _, m := range perLayerDefs {
			rep.put(m, layers[m.name], idleReason(m, w, layers[m.name]))
		}
		rep.printf("  shard: identity plan at K=1 (%d district); its workload waits on sharded serving", st.store.View().NumShards())
		if err := writeTrace(cfg.traceOut, tr, traced); err != nil {
			problems = append(problems, fmt.Sprintf("writing trace: %v", err))
		} else {
			rep.printf("spans written to %s", cfg.traceOut)
		}
	}
	rep.Correct = len(problems) == 0
	for _, p := range problems {
		rep.printf("CHECK FAILED: %s", p)
	}
	rep.printf("correct=%v", rep.Correct)
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// put records one metric for the JSON line and prints its human line.
func (r *runReport) put(m metricDef, v float64, note string) {
	if isBad(v) {
		v = 0
	}
	r.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	line := fmt.Sprintf("  %-42s %14.6g %-9s %s", m.name, v, m.unit, m.better)
	if m.moves != "" {
		line += " -> " + m.moves
	}
	if note != "" {
		line += " [" + note + "]"
	}
	r.printf("%s", line)
}

// kindAccount is one pass's outcome accounting for one op kind. Every
// request dispatched is either attempted or cut off by the end of the run, and
// every attempted one has exactly one outcome; on an open loop every
// scheduled request is dispatched.
type kindAccount struct {
	pass        string
	kind        opKind
	scheduled   int // open-loop schedule entries; -1 when requests are not scheduled
	dispatched  int
	attempted   int
	outcomes    [numOutcomes]int
	checkFailed int
	cut         int
}

// account prints one pass's outcome table, with the generator's lateness on
// an open loop, and adds it to the totals.
func (r *runReport) account(p *pass, label string) {
	var acc [numKinds]kindAccount
	for k := range acc {
		acc[k] = kindAccount{pass: label, kind: opKind(k), scheduled: -1}
		if opKind(k) == kindIngest {
			acc[k].scheduled = p.scheduled[k]
		}
	}
	for _, res := range p.results {
		a := &acc[res.kind]
		a.dispatched++
		if res.cut {
			a.cut++
			continue
		}
		a.attempted++
		a.outcomes[res.out]++
		if res.out == outOK && !res.checkOK {
			a.checkFailed++
		}
	}
	for _, a := range acc {
		if a.dispatched == 0 && a.scheduled <= 0 {
			continue
		}
		r.accounts = append(r.accounts, a)
		line := fmt.Sprintf("outcomes %s %s: attempted=%d", label, a.kind, a.attempted)
		for o := outcome(0); o < numOutcomes; o++ {
			line += fmt.Sprintf(" %s=%d", outcomeNames[o], a.outcomes[o])
		}
		failed := a.attempted - a.outcomes[outOK] + a.checkFailed
		line += fmt.Sprintf(" check_failed=%d not_attempted=%d failure_share=%.4f", a.checkFailed, a.cut, ratio(float64(failed), float64(a.attempted)))
		r.printf("%s", line)
		r.Attempted += a.attempted
		r.Failed += failed
	}
	if late := p.lateness(); len(late) > 0 {
		r.printf("generator %s: send lateness p50 %.6f s, p99 %.6f s over %d scheduled requests (invalid above %v)",
			label, quantile(append([]float64(nil), late...), 0.5), quantile(late, 0.99), len(late), maxLateness)
	}
}

func writeTrace(path string, tr *tracer, p *pass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	doc := struct {
		Spans   []spanRec   `json:"spans"`
		Clients []clientRec `json:"clients"`
		Swaps   []swapEvent `json:"swaps"`
	}{tr.spans, tr.clients, p.swaps}
	raw, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
