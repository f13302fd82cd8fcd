package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// drainGrace bounds how long a pass waits, after its window, for ingest
// scheduled inside it; the estimate deadline is the same.
const drainGrace = estimateTimeout

// outcome classifies one attempted request.
type outcome int

const (
	outOK        outcome = iota
	outShed              // 429: admission control
	outDeadline          // 503: inference deadline expired
	outClientErr         // other 4xx
	outServerErr         // other 5xx
	outNetErr            // transport failure
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "shed", "deadline", "client_error", "server_error", "net_error"}

func classify(status int) outcome {
	switch {
	case status >= 200 && status < 300:
		return outOK
	case status == http.StatusTooManyRequests:
		return outShed
	case status == http.StatusServiceUnavailable:
		return outDeadline
	case status >= 500:
		return outServerErr
	default:
		return outClientErr
	}
}

// result is one request as the client saw it. Latency runs from due, the
// scheduled send time (the actual send time in a closed loop).
type result struct {
	kind    opKind
	rid     string
	due     time.Time
	sent    time.Time
	recv    time.Time
	status  int
	out     outcome
	bytes   int
	cut     bool // cut off by the end of the run: not attempted
	checkOK bool
}

func (r result) latency() float64 { return r.recv.Sub(r.due).Seconds() }

type seedSet struct {
	version uint64
	roads   []roadnet.RoadID
}

// sample is one estimate kept for the direct-call equality check.
type sample struct {
	rid   string
	slot  int
	reps  []report
	roads []roadJSON
}

type roadJSON struct {
	Road     int     `json:"road"`
	SpeedMPS float64 `json:"speed_mps"`
	Rel      float64 `json:"rel"`
	TrendUp  bool    `json:"trend_up"`
	PUp      float64 `json:"p_up"`
}

type estimateJSON struct {
	Slot         int        `json:"slot"`
	Roads        []roadJSON `json:"roads"`
	Seeded       int        `json:"seeded"`
	ModelVersion uint64     `json:"model_version"`
}

type ingestJSON struct {
	Accepted     int    `json:"accepted"`
	Buffered     int    `json:"buffered"`
	ModelVersion uint64 `json:"model_version"`
}

type seedsJSON struct {
	K            int              `json:"k"`
	Seeds        []roadnet.RoadID `json:"seeds"`
	Benefit      float64          `json:"benefit"`
	ModelVersion uint64           `json:"model_version"`
}

// swapEvent is one Store.OnSwap call during a pass, linked to the newest
// ingest acknowledged before the rebuild began, which the rebuild publishes.
type swapEvent struct {
	At       float64 `json:"at_s"`
	Old      uint64  `json:"old_version"`
	New      uint64  `json:"new_version"`
	Mode     string  `json:"mode"`
	BuildS   float64 `json:"build_s"`
	IngestID string  `json:"ingest_request_id,omitempty"`
	LagS     float64 `json:"lag_s,omitempty"`
	// The rebuild's model build and seed re-specialization, read from the
	// program's span ring: the latest such spans without a request ID.
	ModelBuildS float64 `json:"model_build_s"`
	SpecializeS float64 `json:"specialize_s"`
}

// ingestAck is one ingest batch the server acknowledged.
type ingestAck struct {
	at  time.Time
	rid string
}

// accuracy accumulates errors over non-seed roads against frame truth.
type accuracy struct {
	absErr, baseAbsErr float64
	n                  int
	trendOK, trendN    int
}

// pass drives one workload window against a stood-up stack.
type pass struct {
	c       *city
	w       workload
	st      *stack
	est     *http.Client // estimates
	updates *http.Client // ingest and seed re-fetches
	tr      *tracer

	seeds       atomic.Pointer[seedSet]
	lastVersion atomic.Uint64
	notify      chan struct{}

	mu        sync.Mutex
	results   []result
	acc       accuracy
	checkErrs []string
	checkFail int
	samples   []sample
	okEst     int
	bufPeak   int

	// refresh-lag state, guarded by mu: ingest acknowledgements not yet
	// known to be published, in the order they arrived
	acks  []ingestAck
	swaps []swapEvent
	lags  []float64

	start     time.Time
	scheduled [numKinds]int // open-loop schedule entries by kind
}

// maxSamples bounds the estimates kept for the direct-call equality check;
// one in sampleEvery ok estimates is kept.
const (
	maxSamples  = 8
	sampleEvery = 37
)

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func newPass(c *city, w workload, st *stack, cl clients, tr *tracer, seeds *seedSet) *pass {
	p := &pass{c: c, w: w, st: st, est: cl.est, updates: cl.updates, tr: tr, notify: make(chan struct{}, 1)}
	p.seeds.Store(seeds)
	p.lastVersion.Store(seeds.version)
	return p
}

// onSwap is the pass's Store.OnSwap hook; it must not block.
func (p *pass) onSwap(old, v *core.View) {
	now := time.Now()
	p.mu.Lock()
	ev := swapEvent{At: p.tr.since(now), Old: old.Version(), New: v.Version(), Mode: v.RebuildMode(), BuildS: v.BuildDuration().Seconds()}
	began, build, specialize := rebuildSpans()
	ev.ModelBuildS, ev.SpecializeS = build, specialize
	// Every ingest acknowledged before the rebuild began is in it; the
	// newest of them waited the least, so its lag is the refresh lag.
	n := 0
	for n < len(p.acks) && !began.IsZero() && !p.acks[n].at.After(began) {
		n++
	}
	if n > 0 {
		a := p.acks[n-1]
		ev.IngestID, ev.LagS = a.rid, now.Sub(a.at).Seconds()
		p.lags = append(p.lags, ev.LagS)
	}
	p.acks = p.acks[n:]
	p.swaps = append(p.swaps, ev)
	p.mu.Unlock()
}

// run executes the pass for the given window and returns once every request
// it started has finished or been cut off. Estimates run in a closed loop; a
// workload that writes also sends its ingest batches on their schedule.
func (p *pass) run(ctx context.Context, ops []op, window time.Duration) {
	var stream, timed []op
	for _, o := range ops {
		if o.kind == kindEstimate {
			stream = append(stream, o)
		} else {
			timed = append(timed, o)
			p.scheduled[o.kind]++
		}
	}
	p.start = time.Now().Add(20 * time.Millisecond)
	end := p.start.Add(window)
	// An estimate still in flight at the end is cut off; a request scheduled
	// inside the window may take drainGrace to finish.
	estCtx, cancelEst := context.WithDeadline(ctx, end)
	defer cancelEst()
	cutCtx, cancel := context.WithDeadline(ctx, end.Add(drainGrace))
	defer cancel()

	var wg sync.WaitGroup
	var next atomic.Int64
	for i := 0; i < estCallers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(p.start))
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				o := stream[int(next.Add(1)-1)%len(stream)]
				p.do(estCtx, o, now)
			}
		}()
	}
	if p.w.refresh {
		planCtx, stopPlanner := context.WithDeadline(cutCtx, end)
		defer stopPlanner()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.plan(planCtx, cutCtx)
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, o := range timed {
		due := p.start.Add(o.at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				return
			}
		}
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			p.do(cutCtx, o, due)
		}(o)
	}
	wg.Wait()
}

// plan is the hot-refresh seed planner: whenever a response shows a model
// version newer than the current seed set's, it re-fetches /v1/seeds?k=K;
// later estimates report on the returned set.
func (p *pass) plan(ctx, cutCtx context.Context) {
	n := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-p.notify:
		}
		for p.lastVersion.Load() > p.seeds.Load().version && ctx.Err() == nil {
			p.fetchSeeds(cutCtx, n, time.Now())
			n++
		}
	}
}

// lateness is how late the open loop sent each scheduled request, in
// seconds; nil when the pass has no schedule.
func (p *pass) lateness() []float64 {
	var late []float64
	p.mu.Lock()
	for _, r := range p.results {
		if r.kind == kindIngest {
			late = append(late, r.sent.Sub(r.due).Seconds())
		}
	}
	p.mu.Unlock()
	return late
}

func (p *pass) sawVersion(v uint64) {
	for {
		cur := p.lastVersion.Load()
		if v <= cur {
			return
		}
		if p.lastVersion.CompareAndSwap(cur, v) {
			break
		}
	}
	if p.w.refresh {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// send makes one request and reads its whole body into buf.
func (p *pass) send(ctx context.Context, cl *http.Client, method, path, rid string, body []byte, buf *bytes.Buffer) (status int, sent, recv time.Time, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.st.base+path, rd)
	if err != nil {
		return 0, time.Time{}, time.Time{}, err
	}
	req.Header.Set("X-Request-Id", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sent = time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return 0, sent, time.Now(), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, sent, time.Now(), err
}

// finish records a request's result; a transport error after the cut-off
// marks it as cut off rather than failed.
func (p *pass) finish(ctx context.Context, r result, err error) {
	if err != nil {
		if ctx.Err() != nil {
			r.cut = true
		} else {
			r.out = outNetErr
		}
	} else {
		r.out = classify(r.status)
	}
	p.mu.Lock()
	p.results = append(p.results, r)
	p.mu.Unlock()
	p.tr.addClient(r)
}

func (p *pass) do(ctx context.Context, o op, due time.Time) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	rid := o.kind.String() + "-" + strconv.Itoa(o.idx)
	switch o.kind {
	case kindEstimate:
		seeds := p.seeds.Load()
		f := p.c.frames[o.d.frame]
		reps := estimateReports(p.c, o.d, seeds.roads)
		body := estimateBody(make([]byte, 0, 32*len(reps)+32), f.slot, reps)
		status, sent, recv, err := p.send(ctx, p.est, http.MethodPost, "/v1/estimate", rid, body, buf)
		r := result{kind: o.kind, rid: rid, due: due, sent: sent, recv: recv, status: status, bytes: buf.Len()}
		if err == nil && status == http.StatusOK {
			r.checkOK = p.checkEstimate(rid, o.d, reps, buf.Bytes())
		}
		p.finish(ctx, r, err)
	case kindIngest:
		body := ingestBody(make([]byte, 0, 64*ingestBatch), p.c, o.d)
		status, sent, recv, err := p.send(ctx, p.updates, http.MethodPost, "/v1/observations", rid, body, buf)
		r := result{kind: o.kind, rid: rid, due: due, sent: sent, recv: recv, status: status, bytes: buf.Len()}
		if err == nil && status == http.StatusAccepted {
			r.checkOK = p.checkIngest(rid, recv, buf.Bytes())
		}
		p.finish(ctx, r, err)
	}
}

func (p *pass) fetchSeeds(ctx context.Context, n int, due time.Time) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	rid := "seeds-" + strconv.Itoa(n)
	status, sent, recv, err := p.send(ctx, p.updates, http.MethodGet, "/v1/seeds?k="+strconv.Itoa(p.c.k), rid, nil, buf)
	r := result{kind: kindSeeds, rid: rid, due: due, sent: sent, recv: recv, status: status, bytes: buf.Len()}
	if err == nil && status == http.StatusOK {
		var resp seedsJSON
		if derr := json.Unmarshal(buf.Bytes(), &resp); derr != nil {
			p.failCheck("%s: decoding seeds: %v", rid, derr)
		} else if cerr := checkSeeds(resp, p.c.k, p.c.roads); cerr != nil {
			p.failCheck("%s: %v", rid, cerr)
		} else {
			r.checkOK = true
			if resp.ModelVersion > p.seeds.Load().version {
				p.seeds.Store(&seedSet{version: resp.ModelVersion, roads: resp.Seeds})
			}
			p.sawVersion(resp.ModelVersion)
		}
	}
	if err != nil || status != http.StatusOK || !r.checkOK {
		// Without a fresh set the planner would spin; adopt the version so
		// estimates keep reporting on the last good set.
		p.seeds.Store(&seedSet{version: p.lastVersion.Load(), roads: p.seeds.Load().roads})
	}
	p.finish(ctx, r, err)
}

func (p *pass) failCheck(format string, args ...any) {
	p.mu.Lock()
	p.checkFail++
	if len(p.checkErrs) < 5 {
		p.checkErrs = append(p.checkErrs, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

var estPool = sync.Pool{New: func() any { return new(estimateJSON) }}

// checkEstimate decodes and checks one 200 estimate, scores it against the
// frame's truth, and keeps every sampleEvery-th one for the equality check.
func (p *pass) checkEstimate(rid string, d draw, reps []report, raw []byte) bool {
	resp := estPool.Get().(*estimateJSON)
	defer estPool.Put(resp)
	if err := json.Unmarshal(raw, resp); err != nil {
		p.failCheck("%s: decoding estimate: %v", rid, err)
		return false
	}
	f := p.c.frames[d.frame]
	if err := checkEstimate(resp, f.slot, len(reps), p.c.roads); err != nil {
		p.failCheck("%s: %v", rid, err)
		return false
	}
	p.sawVersion(resp.ModelVersion)

	seeded := make(map[roadnet.RoadID]bool, len(reps))
	for _, r := range reps {
		seeded[r.road] = true
	}
	var a accuracy
	truth := f.speeds
	for i, rd := range resp.Roads {
		if seeded[roadnet.RoadID(i)] || !p.c.hasMean[d.frame][i] {
			continue
		}
		a.absErr += abs(rd.SpeedMPS - truth[i])
		a.baseAbsErr += p.c.baseErr[d.frame][i]
		a.n++
		a.trendN++
		if rd.TrendUp == p.c.trueUp[d.frame][i] {
			a.trendOK++
		}
	}
	p.mu.Lock()
	p.acc.absErr += a.absErr
	p.acc.baseAbsErr += a.baseAbsErr
	p.acc.n += a.n
	p.acc.trendOK += a.trendOK
	p.acc.trendN += a.trendN
	keep := !p.w.refresh && p.okEst%sampleEvery == 0 && len(p.samples) < maxSamples
	p.okEst++
	if keep {
		p.samples = append(p.samples, sample{rid: rid, slot: f.slot, reps: reps, roads: append([]roadJSON(nil), resp.Roads...)})
	}
	p.mu.Unlock()
	return true
}

func (p *pass) checkIngest(rid string, recv time.Time, raw []byte) bool {
	var resp ingestJSON
	if err := json.Unmarshal(raw, &resp); err != nil {
		p.failCheck("%s: decoding ingest: %v", rid, err)
		return false
	}
	if resp.Accepted != ingestBatch || resp.Buffered < resp.Accepted || resp.ModelVersion < 1 {
		p.failCheck("%s: ingest response %+v for a batch of %d", rid, resp, ingestBatch)
		return false
	}
	p.mu.Lock()
	if resp.Buffered > p.bufPeak {
		p.bufPeak = resp.Buffered
	}
	p.acks = append(p.acks, ingestAck{at: recv, rid: rid})
	p.mu.Unlock()
	p.sawVersion(resp.ModelVersion)
	return true
}

// rebuildSpans finds, in the program's span ring, the model build and the
// seed re-specialization of the rebuild that is publishing right now, and
// when its model build began. The seeds handler's specializations carry a
// request ID; a rebuild's do not.
func rebuildSpans() (began time.Time, build, specialize float64) {
	spans := obs.DefaultTracer().Spans()
	for i := len(spans) - 1; i >= 0 && (build == 0 || specialize == 0); i-- {
		s := spans[i]
		if s.RequestID != "" {
			continue
		}
		switch s.Name {
		case "seed_specialize":
			if specialize == 0 {
				specialize = s.DurationSeconds
			}
		case "core.rebuild_incremental", "core.new":
			if build == 0 {
				began, build = s.Start, s.DurationSeconds
			}
		}
	}
	return began, build, specialize
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
