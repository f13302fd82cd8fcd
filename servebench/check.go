package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// checkEstimate checks one 200 estimate: one entry per road in road order,
// finite positive speeds, finite relative speeds and p_up in [0, 1].
func checkEstimate(resp *estimateJSON, slot, reports, roads int) error {
	if resp.Slot != slot {
		return fmt.Errorf("estimate for slot %d answered slot %d", slot, resp.Slot)
	}
	if resp.Seeded != reports {
		return fmt.Errorf("estimate with %d reports answered seeded=%d", reports, resp.Seeded)
	}
	if resp.ModelVersion < 1 {
		return fmt.Errorf("estimate answered model_version %d", resp.ModelVersion)
	}
	if len(resp.Roads) != roads {
		return fmt.Errorf("estimate has %d road entries, want %d", len(resp.Roads), roads)
	}
	for i, r := range resp.Roads {
		switch {
		case r.Road != i:
			return fmt.Errorf("entry %d is road %d", i, r.Road)
		case !(r.SpeedMPS > 0) || math.IsInf(r.SpeedMPS, 0):
			return fmt.Errorf("road %d: speed %v is not finite and positive", i, r.SpeedMPS)
		case math.IsNaN(r.Rel) || math.IsInf(r.Rel, 0):
			return fmt.Errorf("road %d: rel %v is not finite", i, r.Rel)
		case !(r.PUp >= 0 && r.PUp <= 1):
			return fmt.Errorf("road %d: p_up %v outside [0, 1]", i, r.PUp)
		}
	}
	return nil
}

// checkSeeds checks a /v1/seeds answer: k distinct in-range roads.
func checkSeeds(resp seedsJSON, k, roads int) error {
	if resp.K != k || len(resp.Seeds) != k {
		return fmt.Errorf("seeds for k=%d answered k=%d with %d roads", k, resp.K, len(resp.Seeds))
	}
	seen := make(map[roadnet.RoadID]bool, k)
	for _, s := range resp.Seeds {
		if int(s) < 0 || int(s) >= roads || seen[s] {
			return fmt.Errorf("seed road %d out of range or repeated", s)
		}
		seen[s] = true
	}
	if math.IsNaN(resp.Benefit) || math.IsInf(resp.Benefit, 0) || resp.Benefit <= 0 {
		return fmt.Errorf("seed benefit %v is not finite and positive", resp.Benefit)
	}
	return nil
}

// checkDirect replays sampled HTTP estimates through Store.EstimateCtx with
// the same inputs and requires every field to be bit-equal. Only valid when
// no rebuild ran during the pass.
func checkDirect(ctx context.Context, store *core.Store, samples []sample) error {
	for _, s := range samples {
		seedSpeeds := make(map[roadnet.RoadID]float64, len(s.reps))
		for _, r := range s.reps {
			seedSpeeds[r.road] = r.speed
		}
		est, err := store.EstimateCtx(ctx, s.slot, seedSpeeds)
		if err != nil {
			return fmt.Errorf("%s: direct Store.EstimateCtx: %w", s.rid, err)
		}
		if len(est.Speeds) != len(s.roads) {
			return fmt.Errorf("%s: direct call has %d roads, HTTP %d", s.rid, len(est.Speeds), len(s.roads))
		}
		for i, r := range s.roads {
			if math.Float64bits(r.SpeedMPS) != math.Float64bits(est.Speeds[i]) ||
				math.Float64bits(r.Rel) != math.Float64bits(est.Rels[i]) ||
				math.Float64bits(r.PUp) != math.Float64bits(est.PUp[i]) ||
				r.TrendUp != est.TrendUp[i] {
				return fmt.Errorf("%s: road %d differs: HTTP (%v, %v, %v, %v) direct (%v, %v, %v, %v)",
					s.rid, i, r.SpeedMPS, r.Rel, r.PUp, r.TrendUp, est.Speeds[i], est.Rels[i], est.PUp[i], est.TrendUp[i])
			}
		}
	}
	return nil
}
