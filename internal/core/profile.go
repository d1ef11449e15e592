package core

import (
	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// searchMaxBPC is the densest bits-per-cell in the design space (the
// densest MLC in the evaluated set). The profiler probes every policy up
// to it and the search enumerates up to it, capped by the technology,
// so every policy the search scores has a measured probe.
const searchMaxBPC = 3

// searchChoices is the per-stream policy space searched on tech.
func searchChoices(tech envm.Tech) []ares.StreamPolicy {
	return PolicyChoices(min(searchMaxBPC, tech.MaxBitsPerCell))
}

// PolicyChoices enumerates the per-stream search space: 1..maxBPC bits
// per cell, each with and without ECC. (ECC at SLC is allowed but never
// useful; the explorer prunes it by cost.)
func PolicyChoices(maxBPC int) []ares.StreamPolicy {
	var out []ares.StreamPolicy
	for bpc := 1; bpc <= maxBPC; bpc++ {
		out = append(out, ares.StreamPolicy{BPC: bpc}, ares.StreamPolicy{BPC: bpc, ECC: true})
	}
	return out
}

// DamageProbe is the measured per-event corruption of one stream under
// one policy, at the (possibly subsampled) profile scale.
type DamageProbe struct {
	DStruct, DNSR, DMismatch float64
}

// Catastrophic reports whether a single event is a cascade.
func (d DamageProbe) Catastrophic() bool { return ares.Cascades(d.DMismatch) }

// StreamProfile is one stored structure's probe table.
type StreamProfile struct {
	Name string
	// FullDataBits is the encoded size of the profiled (possibly
	// subsampled) representation, extrapolated to the real layer.
	FullDataBits int64
	Probes       map[ares.StreamPolicy]DamageProbe
}

// LayerProfile is the complete fault-exposure profile of one layer under
// one encoding kind. Damage probes are technology-independent; fault
// intensities are attached later per technology.
type LayerProfile struct {
	Scale float64
	// SubSignalSS is the signal energy of the profiled representation.
	SubSignalSS float64
	FullWeights int64
	Streams     []StreamProfile
}

// ProfileOptions tunes profiling.
type ProfileOptions struct {
	// DamageTrials per probe (default ares.DefaultDamageTrials).
	DamageTrials int
	Seed         uint64
	// RetentionYears ages the device fault model during evaluation
	// (0 = write-time reliability only).
	RetentionYears float64
}

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.DamageTrials == 0 {
		o.DamageTrials = ares.DefaultDamageTrials
	}
	return o
}

// ProfileLayer encodes the prepared layer under kind and probes every
// stream x policy combination.
func ProfileLayer(pl PreparedLayer, kind sparse.Kind, opt ProfileOptions) LayerProfile {
	opt = opt.withDefaults()
	cl := pl.CL
	enc := sparse.Must(ares.EncodeLayer(cl, ares.Config{Encoding: kind}))
	lp := LayerProfile{Scale: pl.Scale, FullWeights: pl.FullWeights()}
	for _, idx := range cl.Indices {
		w := float64(cl.Centroids[idx])
		lp.SubSignalSS += w * w
	}
	pb := ares.NewProber(enc, cl)
	for i, s := range enc.Streams() {
		sp := StreamProfile{
			Name:         s.Name,
			FullDataBits: int64(float64(s.SizeBits()) * pl.Scale),
			Probes:       make(map[ares.StreamPolicy]DamageProbe),
		}
		for _, key := range PolicyChoices(searchMaxBPC) {
			dS, dN, dM := pb.Probe(i, key, opt.DamageTrials,
				stats.NewSource(opt.Seed+uint64(i)*131+uint64(key.BPC)*7+b2u(key.ECC)))
			sp.Probes[key] = DamageProbe{DStruct: dS, DNSR: dN, DMismatch: dM}
		}
		lp.Streams = append(lp.Streams, sp)
	}
	return lp
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
