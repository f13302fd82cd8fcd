package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. moves says, for a per-layer metric,
// which end-to-end metric on which workload it should move.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// endToEndDefs are the metrics a user of the service sees; every workload
// reports all of them, from its untraced pass.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
	{name: "estimate_p50_s", unit: "s", better: "lower"},
	{name: "estimate_p75_s", unit: "s", better: "lower"},
	{name: "estimate_capacity_rps", unit: "1/s", better: "higher"},
	{name: "speed_mae_mps", unit: "m/s", better: "lower"},
	{name: "trend_accuracy", unit: "fraction", better: "higher"},
}

// perLayerDefs are reported from the traced pass. The stage names of
// core.setup_stage_s.* are the program's own build-stage labels.
var perLayerDefs = []metricDef{
	{"ingest_p99_s", "s", "lower", "end to end on hot-refresh (ingest latency from its scheduled send)"},
	{"refresh_lag_p50_s", "s", "lower", "end to end on hot-refresh (last ingest acknowledged before a rebuild began to the OnSwap that publishes it)"},
	{"setup_first_s", "s", "lower", "setup_s on all (the first, cold set-up of the run; setup_s is the median of all)"},
	{"client.queue_s_p50", "s", "lower", "estimate_p75_s on hot-refresh"},
	{"client.late_p99_s", "s", "lower", "validity check: generator lateness, moves nothing"},
	{"api.handler_s_p50", "s", "lower", "estimate_p50_s on rush-closed"},
	{"api.handler_s_p99", "s", "lower", "estimate_p75_s on rush-closed and hot-refresh"},
	{"api.self_s_mean", "s", "lower", "estimate_capacity_rps on rush-closed"},
	{"api.response_bytes", "bytes", "lower", "estimate_capacity_rps on rush-closed"},
	{"api.admit_waits", "count", "lower", "estimate_p75_s on rush-closed"},
	{"api.shed", "count", "lower", "estimate_p75_s on rush-closed"},
	{"api.seed_cache_hit_frac", "fraction", "higher", "estimate_p75_s on hot-refresh"},
	{"api.ingest_handler_s_p99", "s", "lower", "ingest_p99_s on hot-refresh"},
	{"core.estimate_total_s_p50", "s", "lower", "estimate_p50_s on rush-closed"},
	{"core.estimate_total_s_p99", "s", "lower", "estimate_p75_s on rush-closed"},
	{"core.pre_pass_s_mean", "s", "lower", "estimate_capacity_rps on rush-closed"},
	{"core.trend_s_mean", "s", "lower", "estimate_capacity_rps on rush-closed"},
	{"core.speed_s_mean", "s", "lower", "estimate_capacity_rps on rush-closed"},
	{"core.rebuild_s_mean", "s", "lower", "refresh_lag_p50_s on hot-refresh"},
	{"core.rebuild_incremental_frac", "fraction", "higher", "refresh_lag_p50_s on hot-refresh"},
	{"core.ingest_buffered_peak", "count", "lower", "refresh_lag_p50_s on hot-refresh"},
	{"core.rebuild_other_s_mean", "s", "lower", "refresh_lag_p50_s on hot-refresh"},
	{"core.setup_stage_s.corr_build", "s", "lower", "setup_s on all"},
	{"core.setup_stage_s.hlm_train", "s", "lower", "setup_s on all"},
	{"core.setup_stage_s.seedsel_prepare", "s", "lower", "setup_s on all"},
	{"core.setup_stage_s.trend_topology", "s", "lower", "setup_s on all"},
	{"core.setup_stage_s.seed_specialize", "s", "lower", "setup_s on all"},
	{"mrf.message_updates_per_round", "count", "lower", "estimate_capacity_rps on rush-closed"},
	{"mrf.iterations_per_run", "count", "lower", "estimate_capacity_rps on rush-closed"},
	{"mrf.nonconverged_frac", "fraction", "lower", "trend_accuracy and speed_mae_mps on all"},
	{"mrf.warm_start_frac", "fraction", "higher", "core.trend_s_mean on hot-refresh"},
	{"corr.rescore_s_mean", "s", "lower", "refresh_lag_p50_s on hot-refresh"},
	{"hlm.retrain_s_mean", "s", "lower", "refresh_lag_p50_s on hot-refresh"},
	{"hlm.specialize_s_mean", "s", "lower", "refresh_lag_p50_s on hot-refresh (re-specialization inside rebuilds)"},
	{"seedsel.selections", "count", "lower", "estimate_p75_s on hot-refresh"},
	{"seedsel.reevaluations_per_selection", "count", "lower", "estimate_p75_s on hot-refresh"},
	{"seedsel.setup_reevaluations_per_selection", "count", "lower", "setup_s on all"},
	{"par.runs_per_round", "count", "lower", "estimate_capacity_rps on rush-closed"},
	{"runtime.allocs_per_request", "count", "lower", "estimate_capacity_rps on rush-closed, estimate_p75_s on hot-refresh"},
	{"runtime.alloc_bytes_per_request", "bytes", "lower", "estimate_capacity_rps on rush-closed, estimate_p75_s on hot-refresh"},
	{"runtime.gc_cpu_frac", "fraction", "lower", "estimate_capacity_rps on rush-closed, estimate_p75_s on hot-refresh"},
	{"runtime.cpu_util", "fraction", "lower", "estimate_capacity_rps on rush-closed, estimate_p75_s on hot-refresh"},
	{"shard.districts", "count", "lower", "idle at K=1"},
	{"trace.overhead_p50_s", "s", "lower", "traced minus untraced estimate_p50_s of this run"},
}

func layerDef(name string) metricDef {
	for _, m := range perLayerDefs {
		if m.name == name {
			return m
		}
	}
	panic("servebench: no per-layer metric " + name)
}

// maxLateness marks an open-loop run invalid: the generator fell behind its
// schedule when its p99 lateness exceeds this.
const maxLateness = 250 * time.Millisecond

// endToEnd computes a pass's end-to-end figures from the client's side.
func endToEnd(p *pass, setupDurs []float64, heapLive float64) map[string]float64 {
	var est, ing []float64
	var last time.Time
	for _, r := range p.results {
		if r.cut || r.out != outOK {
			continue
		}
		switch r.kind {
		case kindEstimate:
			est = append(est, r.latency())
			if r.recv.After(last) {
				last = r.recv
			}
		case kindIngest:
			ing = append(ing, r.latency())
		}
	}
	p.mu.Lock()
	lags := append([]float64(nil), p.lags...)
	acc := p.acc
	p.mu.Unlock()
	return map[string]float64{
		"setup_s":               median(setupDurs),
		"setup_first_s":         setupDurs[0],
		"heap_live_mb":          heapLive / (1 << 20),
		"estimate_p50_s":        quantile(append([]float64(nil), est...), 0.50),
		"estimate_p75_s":        quantile(est, 0.75),
		"estimate_capacity_rps": ratio(float64(len(est)), last.Sub(p.start).Seconds()),
		"speed_mae_mps":         ratio(acc.absErr, float64(acc.n)),
		"baseline_mae_mps":      ratio(acc.baseAbsErr, float64(acc.n)),
		"trend_accuracy":        ratio(float64(acc.trendOK), float64(acc.trendN)),
		"ingest_p99_s":          quantile(ing, 0.99),
		"refresh_lag_p50_s":     quantile(lags, 0.50),
	}
}

// verify runs the pass's output checks and validity checks and returns one
// line per failure.
func verify(ctx context.Context, p *pass, e2e map[string]float64) []string {
	var out []string
	p.mu.Lock()
	if p.checkFail > 0 {
		out = append(out, fmt.Sprintf("%d responses failed their checks: %s", p.checkFail, strings.Join(p.checkErrs, "; ")))
	}
	swaps := len(p.swaps)
	samples := p.samples
	n := p.acc.n
	p.mu.Unlock()

	if n == 0 {
		out = append(out, "no estimate succeeded")
	} else if e2e["speed_mae_mps"] >= e2e["baseline_mae_mps"] {
		out = append(out, fmt.Sprintf("speed_mae_mps %.4f does not beat the historical-mean baseline %.4f", e2e["speed_mae_mps"], e2e["baseline_mae_mps"]))
	}
	if !p.w.refresh {
		if swaps > 0 {
			out = append(out, fmt.Sprintf("%d model swaps on a workload without rebuilds", swaps))
		} else if len(samples) == 0 {
			out = append(out, "no estimate sampled for the direct-call check")
		} else if err := checkDirect(ctx, p.st.store, samples); err != nil {
			out = append(out, "HTTP estimate differs from Store.EstimateCtx: "+err.Error())
		}
	} else if swaps == 0 {
		out = append(out, "no rebuild published during the window")
	}
	if late := p.lateness(); len(late) > 0 {
		if l := quantile(late, 0.99); l > maxLateness.Seconds() {
			out = append(out, fmt.Sprintf("invalid run: the generator fell behind (p99 send lateness %.3fs > %v)", l, maxLateness))
		}
	}
	return out
}

// perLayer computes the per-layer metrics of a traced pass.
func perLayer(p *pass, d, setupD delta, traced, untraced map[string]float64, st *stack) map[string]float64 {
	handler := map[string]float64{}
	var estHandler, ingHandler []float64
	p.tr.mu.Lock()
	for _, s := range p.tr.spans {
		dur := s.End - s.Start
		switch s.Name {
		case "handler /v1/estimate":
			if s.Status == 200 {
				handler[s.RequestID] = dur
				estHandler = append(estHandler, dur)
			}
		case "handler /v1/observations":
			ingHandler = append(ingHandler, dur)
		}
	}
	var queue []float64
	for _, c := range p.tr.clients {
		if h, ok := handler[c.RequestID]; ok && c.Kind == "estimate" && !c.Cut {
			queue = append(queue, c.Recv-c.Sent-h)
		}
	}
	p.tr.mu.Unlock()

	var bytesSum, okEst float64
	attempted := 0.0
	for _, r := range p.results {
		if r.cut {
			continue
		}
		attempted++
		if r.kind == kindEstimate && r.out == outOK {
			bytesSum += float64(r.bytes)
			okEst++
		}
	}
	p.mu.Lock()
	bufPeak := float64(p.bufPeak)
	p.mu.Unlock()

	const (
		stage   = "trendspeed_core_stage_duration_seconds"
		phase   = "trendspeed_core_estimate_duration_seconds"
		rebuild = "trendspeed_model_rebuild_duration_seconds"
	)
	rounds := d.get("trendspeed_core_estimate_rounds_total", fValue)
	bpRuns := d.get("trendspeed_bp_runs_total", fValue)
	// Rebuild time the model build and the seed re-specialization do not
	// cover: history roll-forward and publish. Means, so that a rebuild
	// straddling the window edge does not skew it.
	const success = "success"
	rebuilds := d.get("trendspeed_model_rebuilds_total", fValue, "outcome", success)
	incr := ratio(d.get("trendspeed_model_rebuilds_total", fValue, "outcome", success, "mode", "incremental"), rebuilds)
	var builds, specs []float64
	p.mu.Lock()
	for _, ev := range p.swaps {
		builds = append(builds, ev.ModelBuildS)
		specs = append(specs, ev.SpecializeS)
	}
	p.mu.Unlock()
	other := 0.0
	if rebuilds > 0 && len(builds) > 0 {
		other = d.mean(rebuild) - meanOf(builds) - meanOf(specs)
	}
	selections := d.get("trendspeed_seedsel_selections_total", fValue)
	busy := d.rt(rtTotalCPU) - d.rt(rtIdleCPU)

	m := map[string]float64{
		"ingest_p99_s":                        traced["ingest_p99_s"],
		"refresh_lag_p50_s":                   traced["refresh_lag_p50_s"],
		"setup_first_s":                       traced["setup_first_s"],
		"client.queue_s_p50":                  quantile(queue, 0.50),
		"client.late_p99_s":                   quantile(p.lateness(), 0.99),
		"api.handler_s_p50":                   quantile(append([]float64(nil), estHandler...), 0.50),
		"api.handler_s_p99":                   quantile(estHandler, 0.99),
		"api.self_s_mean":                     meanOf(estHandler) - d.mean(phase, "phase", "total"),
		"api.response_bytes":                  ratio(bytesSum, okEst),
		"api.admit_waits":                     d.get("trendspeed_api_inflight_waits", fValue),
		"api.shed":                            d.get("trendspeed_api_shed_total", fValue),
		"api.seed_cache_hit_frac":             ratio(d.get("trendspeed_api_seed_cache_hits_total", fValue), d.get("trendspeed_api_seed_cache_hits_total", fValue)+d.get("trendspeed_api_seed_cache_misses_total", fValue)),
		"api.ingest_handler_s_p99":            quantile(ingHandler, 0.99),
		"core.estimate_total_s_p50":           d.estTotalQuantile(0.50),
		"core.estimate_total_s_p99":           d.estTotalQuantile(0.99),
		"core.pre_pass_s_mean":                d.mean(phase, "phase", "pre_pass"),
		"core.trend_s_mean":                   d.mean(phase, "phase", "trend"),
		"core.speed_s_mean":                   d.mean(phase, "phase", "speed"),
		"core.rebuild_s_mean":                 d.mean(rebuild),
		"core.rebuild_incremental_frac":       incr,
		"core.ingest_buffered_peak":           bufPeak,
		"core.rebuild_other_s_mean":           other,
		"mrf.message_updates_per_round":       ratio(d.get("trendspeed_bp_message_updates_total", fValue), rounds),
		"mrf.iterations_per_run":              d.mean("trendspeed_bp_iterations"),
		"mrf.nonconverged_frac":               ratio(d.get("trendspeed_bp_nonconverged_total", fValue), bpRuns),
		"mrf.warm_start_frac":                 ratio(d.get("trendspeed_bp_warm_starts_total", fValue), bpRuns),
		"corr.rescore_s_mean":                 d.mean(stage, "stage", "corr_rescore"),
		"hlm.retrain_s_mean":                  d.mean(stage, "stage", "hlm_retrain"),
		"hlm.specialize_s_mean":               meanOf(specs),
		"seedsel.selections":                  selections,
		"seedsel.reevaluations_per_selection": ratio(d.get("trendspeed_seedsel_reevaluations_total", fValue), selections),
		"seedsel.setup_reevaluations_per_selection": ratio(setupD.get("trendspeed_seedsel_reevaluations_total", fValue),
			setupD.get("trendspeed_seedsel_selections_total", fValue)),
		"par.runs_per_round":              ratio(d.get("trendspeed_par_runs_total", fValue), rounds),
		"runtime.allocs_per_request":      ratio(d.rt(rtAllocObjects), attempted),
		"runtime.alloc_bytes_per_request": ratio(d.rt(rtAllocBytes), attempted),
		"runtime.gc_cpu_frac":             ratio(d.rt(rtGCCPU), busy),
		"runtime.cpu_util":                ratio(busy, d.rt(rtTotalCPU)),
		"shard.districts":                 float64(st.store.View().NumShards()),
		"trace.overhead_p50_s":            traced["estimate_p50_s"] - untraced["estimate_p50_s"],
	}
	for _, s := range []string{"corr_build", "hlm_train", "seedsel_prepare", "trend_topology", "seed_specialize"} {
		m["core.setup_stage_s."+s] = setupD.mean(stage, "stage", s)
	}
	return m
}

// idleReason explains a per-layer metric that reads 0 because its layer has
// no work on this workload.
func idleReason(m metricDef, w workload, v float64) string {
	if v != 0 {
		return ""
	}
	switch {
	case !w.refresh && (strings.HasPrefix(m.name, "core.rebuild") || m.name == "refresh_lag_p50_s" ||
		m.name == "corr.rescore_s_mean" || m.name == "hlm.retrain_s_mean" || m.name == "hlm.specialize_s_mean" ||
		m.name == "mrf.warm_start_frac"):
		return "idle: no rebuilds on this workload"
	case !w.refresh && (strings.Contains(m.name, "ingest")):
		return "idle: no ingest on this workload"
	case !w.refresh && (strings.HasPrefix(m.name, "seedsel.") || m.name == "api.seed_cache_hit_frac"):
		return "idle: no seed selection during the window"
	case !w.refresh && m.name == "client.late_p99_s":
		return "closed loop: no schedule"
	case m.name == "api.admit_waits" || m.name == "api.shed":
		return fmt.Sprintf("%d estimate callers never fill %d admission slots", estCallers, 2*runtime.GOMAXPROCS(0))
	case m.name == "api.seed_cache_hit_frac":
		return "one planner fetches once per model version, so every fetch misses"
	}
	return ""
}

func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
