package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Serving-stack settings: speedserver's defaults. Its default logger is JSON
// at info level on stderr; the benchmark's encodes the same records into
// io.Discard.
const (
	estimateTimeout = 10 * time.Second
	incrementalFrac = 0.25
	estCallers      = 2 // closed-loop estimate callers, one connection each: nproc on the reference 2-core box
)

// stack is one stood-up serving stack: the store, the API server behind a
// timing wrapper, and a loopback listener.
type stack struct {
	store   *core.Store
	handler *timedHandler
	srv     *http.Server
	base    string
	seeds   []roadnet.RoadID
	served  chan error
}

// spanRec is one timed interval on the benchmark's own side of a layer
// boundary. Kept in memory and written out when the run ends.
type spanRec struct {
	Name      string  `json:"name"`
	RequestID string  `json:"request_id,omitempty"`
	Start     float64 `json:"start_s"` // seconds since the run's epoch
	End       float64 `json:"end_s"`
	Status    int     `json:"status,omitempty"`
	Bytes     int     `json:"bytes,omitempty"`
}

// clientRec is one request's client span: when it was due, sent and
// answered.
type clientRec struct {
	Kind      string  `json:"kind"`
	RequestID string  `json:"request_id"`
	Due       float64 `json:"due_s"`
	Sent      float64 `json:"sent_s"`
	Recv      float64 `json:"recv_s"`
	Status    int     `json:"status"`
	Cut       bool    `json:"cut,omitempty"`
}

// tracer collects spans when on; every method is a no-op when off.
type tracer struct {
	on      bool
	epoch   time.Time
	mu      sync.Mutex
	spans   []spanRec
	clients []clientRec
}

func (t *tracer) add(s spanRec) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addClient(r result) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.clients = append(t.clients, clientRec{
		Kind: r.kind.String(), RequestID: r.rid, Due: t.since(r.due), Sent: t.since(r.sent),
		Recv: t.since(r.recv), Status: r.status, Cut: r.cut,
	})
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// timedHandler wraps api.Server.ServeHTTP. While tracing it records one
// handler span per request, keyed by the X-Request-Id the client sent.
type timedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil || !tr.on {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	t.h.ServeHTTP(cw, r)
	end := time.Now()
	tr.add(spanRec{
		Name: "handler " + r.URL.Path, RequestID: r.Header.Get("X-Request-Id"),
		Start: tr.since(start), End: tr.since(end), Status: cw.status, Bytes: cw.n,
	})
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// setUp stands up the serving stack and returns once the first estimate has
// succeeded over HTTP: core.NewStore, the initial SelectSeeds(K), the API
// server and its listener. The returned duration is the set-up time.
func setUp(ctx context.Context, c *city, client *http.Client, tr *tracer) (*stack, time.Duration, error) {
	t0 := time.Now()
	opts := core.DefaultOptions()
	store, err := core.NewStore(c.ds.Net, c.ds.DB, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("core.NewStore: %w", err)
	}
	t1 := time.Now()
	tr.add(spanRec{Name: "setup core.NewStore", Start: tr.since(t0), End: tr.since(t1)})
	seeds, err := store.SelectSeeds(c.k)
	if err != nil {
		store.Close()
		return nil, 0, fmt.Errorf("Store.SelectSeeds(%d): %w", c.k, err)
	}
	t2 := time.Now()
	tr.add(spanRec{Name: "setup Store.SelectSeeds", Start: tr.since(t1), End: tr.since(t2)})
	apiSrv, err := api.NewServerWith(store, api.Config{
		Metrics:              true,
		MaxInflightEstimates: 2 * runtime.GOMAXPROCS(0),
		EstimateTimeout:      estimateTimeout,
		Logger:               obs.NewLogger(io.Discard, slog.LevelInfo),
	})
	if err != nil {
		store.Close()
		return nil, 0, fmt.Errorf("api.NewServerWith: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, 0, fmt.Errorf("listening on loopback: %w", err)
	}
	st := &stack{
		store:   store,
		handler: &timedHandler{h: apiSrv},
		base:    "http://" + ln.Addr().String(),
		seeds:   seeds,
		served:  make(chan error, 1),
	}
	st.srv = &http.Server{
		Handler:           st.handler,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	t3 := time.Now()
	tr.add(spanRec{Name: "setup api.NewServerWith+listen", Start: tr.since(t2), End: tr.since(t3)})

	reps := make([]report, len(seeds))
	for i, r := range seeds {
		reps[i] = report{road: r, speed: c.frames[0].speeds[r]}
	}
	body := estimateBody(nil, c.frames[0].slot, reps)
	if err := firstEstimate(ctx, client, st.base, body); err != nil {
		st.close()
		return nil, 0, err
	}
	t4 := time.Now()
	tr.add(spanRec{Name: "setup first estimate", Start: tr.since(t3), End: tr.since(t4)})
	return st, t4.Sub(t0), nil
}

func firstEstimate(ctx context.Context, client *http.Client, base string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("first estimate: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("first estimate: reading body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first estimate: status %d: %s", resp.StatusCode, raw)
	}
	return nil
}

// close shuts the listener down, waits for the serve loop to return and
// stops the store's rebuild loop.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a drain timeout leaves nothing of ours running: Serve has returned below
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("servebench: serve loop: %v", err)
	}
	st.store.Close()
}
