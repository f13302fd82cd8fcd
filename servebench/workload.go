package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// City dimensions: the default generator at 20×16 blocks with a week of
// history gives the 1414-road city the roadmap's sizing figures quote.
const (
	cityBlocksX    = 20
	cityBlocksY    = 16
	cityHistory    = 7
	replayHourFrom = 7
	replayHourTo   = 10

	seedFrac    = 0.10 // seed budget K as a share of roads (the paper's headline budget)
	reportNoise = 0.10 // σ of the log-normal noise on crowd-reported speeds
	keepMin     = 0.80 // each estimate reports a random 80–100% of the seed set
	keepMax     = 1.00

	ingestBatch = 100  // observations per ingest request
	hotLoFrac   = 0.45 // the hot district: road IDs [45%, 55%) of the city
	hotHiFrac   = 0.55
)

// workload is one traffic mix. There are two: rush-closed, a closed loop of
// estimates from estCallers callers against the frozen version-1 model, and
// hot-refresh (refresh set), the same closed loop beside open-loop ingest
// into the hot district at refreshIngestRate, with the store's rebuild loop
// armed at refreshMinObs and a planner that re-fetches /v1/seeds whenever a
// response shows a new model version.
type workload struct {
	name    string
	why     string
	refresh bool
}

const (
	refreshIngestRate = 10   // hot-refresh ingest batches per second
	refreshMinObs     = 3000 // buffered observations that trigger a rebuild
)

var workloads = []workload{
	{
		name: "rush-closed",
		why:  "closed-loop 7-10am estimates from 2 callers; BP and HLM do the work, every rebuild layer idle, and per-request CPU savings show as capacity",
	},
	{
		name:    "hot-refresh",
		why:     "the rush-closed estimates beside open-loop ingest into one hot district that keeps incremental rebuilds running, and seed re-fetches",
		refresh: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// frame is one ground-truth snapshot of the simulated replay window.
type frame struct {
	slot   int
	speeds []float64
}

// city is the fixed input every workload shares: the dataset the store is
// trained on and the truth frames requests are generated from. It does not
// depend on the request-stream seed.
type city struct {
	ds     *dataset.Dataset
	frames []frame
	roads  int
	k      int
	hotLo  int
	hotHi  int

	// Per frame and road, from the training history: whether the road has
	// a historical mean, the historical-mean baseline's absolute error,
	// and the true trend (up iff the true speed reaches the mean).
	hasMean [][]bool
	baseErr [][]float64
	trueUp  [][]bool
}

func buildCity() (*city, error) {
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = cityBlocksX, cityBlocksY
	cfg.HistoryDays = cityHistory
	ds, err := dataset.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	c := &city{ds: ds, roads: ds.Net.NumRoads()}
	// The simulator sits right after the history period; walk it into the
	// morning peak and keep one frame per slot of the window.
	for stepped := 0; stepped <= ds.Cal.SlotsPerDay(); stepped++ {
		hour := ds.Cal.HourOfSlot(ds.Slot())
		if hour >= replayHourFrom && hour < replayHourTo {
			c.frames = append(c.frames, frame{slot: ds.Slot(), speeds: append([]float64(nil), ds.Truth()...)})
		} else if len(c.frames) > 0 {
			break
		}
		ds.NextTruth()
	}
	if len(c.frames) == 0 {
		return nil, fmt.Errorf("no slots in the %d-%d replay window", replayHourFrom, replayHourTo)
	}
	for _, f := range c.frames {
		has, base, up := make([]bool, c.roads), make([]float64, c.roads), make([]bool, c.roads)
		for r := range has {
			m, ok := ds.DB.Mean(roadnet.RoadID(r), f.slot)
			if !ok || m <= 0 {
				continue
			}
			has[r], base[r], up[r] = true, math.Abs(m-f.speeds[r]), f.speeds[r] >= m
		}
		c.hasMean, c.baseErr, c.trueUp = append(c.hasMean, has), append(c.baseErr, base), append(c.trueUp, up)
	}
	c.k = int(math.Round(seedFrac * float64(c.roads)))
	c.hotLo = int(hotLoFrac * float64(c.roads))
	c.hotHi = int(hotHiFrac * float64(c.roads))
	return c, nil
}

// draw is the seeded part of one request: everything except the seed set,
// which on hot-refresh is only known at send time.
type draw struct {
	frame int
	seed  int64 // drives the subset, the noise and, for ingest, the roads
}

// op is one entry of a closed-loop estimate stream or one scheduled request
// of an open loop (at is then its offset from the start of the pass).
type op struct {
	kind opKind
	at   time.Duration
	idx  int // index within its kind, used in the request ID
	d    draw
}

type opKind int

const (
	kindEstimate opKind = iota
	kindIngest
	kindSeeds
	numKinds
)

func (k opKind) String() string {
	return [...]string{"estimate", "ingest", "seeds"}[k]
}

// schedule builds a pass's requests before timing starts: an estimate stream
// long enough that closed-loop callers never wrap at any rate this box can
// reach and, on hot-refresh, ingest batches spaced evenly at their fixed rate.
func schedule(w workload, c *city, seed int64, seconds float64) []op {
	rng := rand.New(rand.NewSource(seed))
	newDraw := func() draw { return draw{frame: rng.Intn(len(c.frames)), seed: rng.Int63()} }
	var ops []op
	for i := 0; i < int(seconds*400)+64; i++ {
		ops = append(ops, op{kind: kindEstimate, idx: i, d: newDraw()})
	}
	if w.refresh {
		for i := 0; i < int(seconds*refreshIngestRate); i++ {
			at := time.Duration((float64(i) + 0.5) / refreshIngestRate * float64(time.Second))
			ops = append(ops, op{kind: kindIngest, at: at, idx: i, d: newDraw()})
		}
	}
	return ops
}

// report is one crowd speed report of an estimate request.
type report struct {
	road  roadnet.RoadID
	speed float64
}

// estimateReports draws an estimate's reports: a random 80–100% subset of
// the seed set, each at the frame's true speed times log-normal noise.
func estimateReports(c *city, d draw, seeds []roadnet.RoadID) []report {
	rng := rand.New(rand.NewSource(d.seed))
	keep := keepMin + (keepMax-keepMin)*rng.Float64()
	n := int(math.Ceil(keep * float64(len(seeds))))
	if n > len(seeds) {
		n = len(seeds)
	}
	perm := rng.Perm(len(seeds))[:n]
	truth := c.frames[d.frame].speeds
	out := make([]report, n)
	for i, p := range perm {
		r := seeds[p]
		out[i] = report{road: r, speed: truth[r] * math.Exp(reportNoise*rng.NormFloat64())}
	}
	return out
}

// estimateBody renders an estimate request. Speeds use the shortest exact
// float64 form, so the server decodes the very values a direct call gets.
func estimateBody(buf []byte, slot int, reps []report) []byte {
	buf = append(buf, `{"slot":`...)
	buf = strconv.AppendInt(buf, int64(slot), 10)
	buf = append(buf, `,"reports":[`...)
	for i, r := range reps {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"road":`...)
		buf = strconv.AppendInt(buf, int64(r.road), 10)
		buf = append(buf, `,"speed_mps":`...)
		buf = strconv.AppendFloat(buf, r.speed, 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// ingestBody renders one batch of observations inside the hot district, at
// the frame's slot and true speeds with report noise.
func ingestBody(buf []byte, c *city, d draw) []byte {
	rng := rand.New(rand.NewSource(d.seed))
	f := c.frames[d.frame]
	buf = append(buf, `{"observations":[`...)
	for i := 0; i < ingestBatch; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		road := c.hotLo + rng.Intn(c.hotHi-c.hotLo)
		buf = append(buf, `{"road":`...)
		buf = strconv.AppendInt(buf, int64(road), 10)
		buf = append(buf, `,"slot":`...)
		buf = strconv.AppendInt(buf, int64(f.slot), 10)
		buf = append(buf, `,"speed_mps":`...)
		buf = strconv.AppendFloat(buf, f.speeds[road]*math.Exp(reportNoise*rng.NormFloat64()), 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}
