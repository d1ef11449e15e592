package mitigate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ares"
	"repro/internal/envm"
)

// ECCBlockChoices are the SEC-DED data-block sizes the planner selects
// from, largest (cheapest) first.
var ECCBlockChoices = []int{4096, 2048, 1024, 512, 256, 128}

// residualFraction bounds the planner's block-size choice: the residual
// uncorrectable-event rate per cell (blocks x P(>=2 faults) / cells)
// must stay below this fraction of the raw fault rate, i.e. ECC must
// buy at least a ~100x reduction at write time so drift has margin to
// eat before the next scrub.
const residualFraction = 0.01

// maxBlockFailProb additionally caps P(>=2 faults) per block: without
// it the relative criterion degenerates at extreme fault rates, where
// a block that is almost surely multi-faulted still "reduces" the
// per-cell event rate by pooling many cells into one doomed codeword.
const maxBlockFailProb = 0.05

// ChooseBlockBits picks the largest affordable SEC-DED data-block size
// for a device with the given per-cell fault rate at bpc bits per cell.
// Larger blocks cost less parity but see >=2 faults per block more
// often; the choice is the largest block keeping the residual
// uncorrectable rate under residualFraction of the raw rate.
func ChooseBlockBits(perCellRate float64, bpc int) int {
	if bpc < 1 {
		bpc = 1
	}
	if perCellRate <= 0 {
		return ECCBlockChoices[0]
	}
	for _, b := range ECCBlockChoices {
		cellsPerBlock := float64(b) / float64(bpc)
		lb := cellsPerBlock * perCellRate
		p2 := 1 - math.Exp(-lb) - lb*math.Exp(-lb)
		if p2 <= maxBlockFailProb && p2/cellsPerBlock <= residualFraction*perCellRate {
			return b
		}
	}
	return ECCBlockChoices[len(ECCBlockChoices)-1]
}

// Plan is a non-uniform protection assignment: the planner's output,
// applied to an ares.Config via Apply.
type Plan struct {
	// Policies maps every ranked stream to its planned policy.
	Policies map[string]ares.StreamPolicy
	// BlockBits is the SEC-DED data-block size for protected streams.
	BlockBits int
	// BudgetFrac is the requested cell-overhead budget; OverheadFrac is
	// what the plan actually spends (parity + derating, as a fraction of
	// the unprotected baseline cells).
	BudgetFrac, OverheadFrac float64
	// BaselineCells / PlannedCells are the absolute storage bills.
	BaselineCells, PlannedCells int64
	// Protected lists streams upgraded to ECC; Derated lists streams
	// additionally moved to SLC (criticality-based bpc derating).
	Protected, Derated []string
}

// Apply overlays the plan onto cfg: per-stream overrides, the chosen
// ECC block size, and graceful decode degradation (a plan that arms ECC
// always arms the degrade path — detections it cannot correct must not
// cascade).
func (pl Plan) Apply(cfg ares.Config) ares.Config {
	out := cfg
	out.Overrides = make(map[string]ares.StreamPolicy, len(cfg.Overrides)+len(pl.Policies))
	for name, p := range cfg.Overrides {
		out.Overrides[name] = p
	}
	for name, p := range pl.Policies {
		out.Overrides[name] = p
	}
	out.ECCBlockBits = pl.BlockBits
	out.Degrade = true
	return out
}

// String summarizes the plan for CLI output.
func (pl Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blk%d, overhead %.1f%% of %.2g budget", pl.BlockBits,
		100*pl.OverheadFrac, pl.BudgetFrac)
	if len(pl.Protected) > 0 {
		fmt.Fprintf(&b, "; ECC: %s", strings.Join(pl.Protected, ","))
	}
	if len(pl.Derated) > 0 {
		fmt.Fprintf(&b, "; SLC: %s", strings.Join(pl.Derated, ","))
	}
	return b.String()
}

// PlanProtection spends budgetFrac (extra cells as a fraction of the
// unprotected baseline) down the criticality ranking. Cascade-prone
// streams are offered the strongest affordable upgrade first — SLC
// derating plus ECC, then bare SLC — while linear-damage streams get
// SEC-DED at their ranked density. Streams the budget cannot reach keep
// their baseline policy.
func PlanProtection(ranks []StreamRank, tech envm.Tech, budgetFrac float64) (Plan, error) {
	if len(ranks) == 0 {
		return Plan{}, fmt.Errorf("mitigate: no ranked streams to plan over")
	}
	if math.IsNaN(budgetFrac) || budgetFrac < 0 {
		return Plan{}, fmt.Errorf("mitigate: protection budget %v must be >= 0", budgetFrac)
	}
	pl := Plan{Policies: make(map[string]ares.StreamPolicy, len(ranks)), BudgetFrac: budgetFrac}
	var baseline int64
	maxBPC := 0
	for _, r := range ranks {
		if r.BPC < 1 {
			return Plan{}, fmt.Errorf("mitigate: stream %q ranked at bpc %d", r.Name, r.BPC)
		}
		pl.Policies[r.Name] = ares.StreamPolicy{BPC: r.BPC}
		baseline += r.Cells
		if r.BPC > maxBPC {
			maxBPC = r.BPC
		}
	}
	pl.BaselineCells = baseline
	pl.PlannedCells = baseline

	// Block size from the densest stream's write-time fault rate: the
	// worst exposure ECC must hold until the first scrub.
	rate := envm.StoreConfig{Tech: tech, BPC: maxBPC}.FaultMap().TotalRate()
	pl.BlockBits = ChooseBlockBits(rate, maxBPC)

	budget := budgetFrac * float64(baseline)
	spent := 0.0
	// Ranks arrive most-critical first; spend down the list.
	for _, r := range ranks {
		type candidate struct {
			pol     ares.StreamPolicy
			derated bool
		}
		var cands []candidate
		// meta24 (the 2:4 position stream) is offered SLC derating even
		// when its probes land under the cascade threshold: a position
		// flip relocates a weight within its group — structural damage
		// the fixed-rate format cannot contain any other way.
		if (r.Catastrophic || r.Name == "meta24") && r.BPC > 1 {
			cands = append(cands,
				candidate{ares.StreamPolicy{BPC: 1, ECC: true}, true},
				candidate{ares.StreamPolicy{BPC: 1}, true})
		}
		cands = append(cands, candidate{ares.StreamPolicy{BPC: r.BPC, ECC: true}, false})
		for _, c := range cands {
			cells := ares.PriceStream(r.Name, c.pol, r.DataBits, pl.BlockBits).Cells
			extra := float64(cells - r.Cells)
			if extra > budget-spent {
				continue
			}
			spent += extra
			pl.Policies[r.Name] = c.pol
			pl.PlannedCells += cells - r.Cells
			if c.pol.ECC {
				pl.Protected = append(pl.Protected, r.Name)
			}
			if c.derated {
				pl.Derated = append(pl.Derated, r.Name)
			}
			break
		}
	}
	sort.Strings(pl.Protected)
	sort.Strings(pl.Derated)
	if baseline > 0 {
		pl.OverheadFrac = float64(pl.PlannedCells-pl.BaselineCells) / float64(baseline)
	}
	met.plans.Inc()
	return pl, nil
}
