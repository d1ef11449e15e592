package ares

import "math"

// ModelDamage aggregates per-layer fault exposure into the model-level
// corruption expectation the acceptance criterion consumes.
type ModelDamage struct {
	Layers []LayerDamage

	TotalWeights int
	TotalBits    int64
	TotalCells   int64

	// LinearNSR / LinearStruct accumulate expected corruption from
	// high-rate, low-damage faults (lambda x damage, share-weighted to
	// model scale).
	LinearNSR    float64
	LinearStruct float64
	// CatLambda is the pooled expected count of catastrophic cascade
	// events; CatNSR/CatStruct the lambda-weighted mean damage of one
	// such event at model scale.
	CatLambda float64
	CatNSR    float64
	CatStruct float64
}

// Aggregate combines layer damages. Layer corruption fractions are
// rescaled by the layer's share of model weights (for structural
// corruption) and of model signal energy (for value NSR).
func Aggregate(layers []LayerDamage) ModelDamage {
	md := ModelDamage{Layers: layers}
	var totalSS float64
	for _, ld := range layers {
		md.TotalWeights += ld.Weights
		totalSS += ld.SignalSS
		md.TotalBits += TotalBits(ld.Costs)
		md.TotalCells += TotalCells(ld.Costs)
	}
	if md.TotalWeights == 0 {
		return md
	}
	var catNSRSum, catStructSum float64
	for _, ld := range layers {
		wShare := float64(ld.Weights) / float64(md.TotalWeights)
		sShare := 0.0
		if totalSS > 0 {
			sShare = ld.SignalSS / totalSS
		}
		for _, sd := range ld.Streams {
			if sd.LambdaEff == 0 {
				continue
			}
			if sd.Catastrophic {
				md.CatLambda += sd.LambdaEff
				catStructSum += sd.LambdaEff * sd.DStruct * wShare
				catNSRSum += sd.LambdaEff * sd.DNSR * sShare
			} else {
				md.LinearStruct += sd.LambdaEff * sd.DStruct * wShare
				md.LinearNSR += sd.LambdaEff * sd.DNSR * sShare
			}
		}
	}
	if md.CatLambda > 0 {
		md.CatStruct = catStructSum / md.CatLambda
		md.CatNSR = catNSRSum / md.CatLambda
	}
	return md
}

// ExpectedDeltaError returns the expected classification-error increase:
// the linear corruption applies always; catastrophic cascades strike
// with probability 1-exp(-CatLambda) and add their event damage.
func (md ModelDamage) ExpectedDeltaError(sens, headroom float64) float64 {
	linear := DeltaError(sens, headroom, md.LinearNSR, md.LinearStruct)
	if md.CatLambda == 0 {
		return linear
	}
	pCat := 1 - math.Exp(-md.CatLambda)
	cat := DeltaError(sens, headroom, md.LinearNSR+md.CatNSR, md.LinearStruct+md.CatStruct)
	return (1-pCat)*linear + pCat*cat
}
