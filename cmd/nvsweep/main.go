// Command nvsweep characterizes eNVM memory arrays (the NVSim-like flow):
// for a technology, capacity, and bits-per-cell it sweeps array
// organizations and prints either the full sweep, the Pareto frontier,
// or the single target-optimal point.
//
// The sweep runs through the resilient campaign engine
// (internal/campaign): organizations characterize in parallel, Ctrl-C
// cancels cleanly (completed points are flushed to the checkpoint when
// -checkpoint is set), and -resume replays finished points instead of
// recomputing them.
//
// Usage:
//
//	nvsweep -tech MLC-CTT -mb 12 -bpc 2 -target edp
//	nvsweep -tech SLC-RRAM -mb 32 -bpc 1 -pareto
//	nvsweep -mb 64 -bpc 2 -full -checkpoint sweep.jsonl
//	nvsweep -mb 64 -bpc 2 -full -resume -checkpoint sweep.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/durable"
	"repro/internal/envm"
	"repro/internal/nvsim"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

func main() {
	techName := flag.String("tech", "MLC-CTT", "technology name")
	techFile := flag.String("techfile", "", "JSON file with a custom technology definition (overrides -tech)")
	capMB := flag.Float64("mb", 4, "capacity in decimal MB")
	bpc := flag.Int("bpc", 1, "bits per cell")
	targetName := flag.String("target", "edp", "optimization target: edp|area|latency|energy|leakage")
	encName := flag.String("encoding", "", "size the array for an encoded model: scale -mb by the encoding's density over a synthetic clustered proxy ("+strings.Join(sparse.KindNames(), "|")+"; empty = raw capacity)")
	proxySparsity := flag.Float64("sparsity", 0.9, "synthetic proxy sparsity for the -encoding density estimate")
	pareto := flag.Bool("pareto", false, "print the area/latency/energy Pareto frontier")
	full := flag.Bool("full", false, "print every organization")
	timeout := flag.Duration("timeout", 0, "per-organization characterization deadline (0 = none)")
	workers := flag.Int("workers", 0, "concurrent characterization workers (0 = auto)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint path (completed points are appended)")
	resume := flag.Bool("resume", false, "replay completed points from -checkpoint before computing the rest")
	outPath := flag.String("out", "", "write the characterized points as JSON to this path (atomic replace)")
	maxTrials := flag.Int("max-trials", 1, "samples per organization (the analytic model is deterministic; >1 only re-verifies)")
	ciTarget := flag.Float64("ci-target", 0, "early-stop CI half-width target when -max-trials > 1")
	progress := flag.Duration("progress", 0, "progress-line interval on stderr (0 = silent)")
	fleetN := flag.Int("fleet", 0, "run the sweep as an N-worker single-machine fleet (lease-claimed shards, kill-safe, bit-identical merge)")
	fleetDir := flag.String("fleet-dir", "", "fleet directory for -fleet (default: a temporary directory; an existing fleet dir is resumed)")
	xbar := cliutil.AddXbarFlags()
	tel := cliutil.AddFlags()
	flag.Parse()
	tel.Start()
	defer tel.Dump()

	var tech envm.Tech
	var err error
	if *techFile != "" {
		f, ferr := os.Open(*techFile)
		if ferr != nil {
			cliutil.Usagef("nvsweep: %v", ferr)
		}
		tech, err = envm.LoadTech(f)
		f.Close()
	} else {
		tech, err = envm.ByName(*techName)
	}
	if err != nil {
		cliutil.Usagef("nvsweep: %v", err)
	}
	var target nvsim.Target
	switch strings.ToLower(*targetName) {
	case "edp":
		target = nvsim.OptReadEDP
	case "area":
		target = nvsim.OptArea
	case "latency":
		target = nvsim.OptReadLatency
	case "energy":
		target = nvsim.OptReadEnergy
	case "leakage":
		target = nvsim.OptLeakage
	default:
		cliutil.Usagef("nvsweep: unknown target %q", *targetName)
	}
	cliutil.CheckResume("nvsweep", *resume, *checkpoint)

	cfg := nvsim.Config{
		Tech: tech, BPC: *bpc,
		CapacityBits: int64(*capMB * 8e6),
		Target:       target,
	}
	if *encName != "" {
		kind, err := sparse.ParseKind(*encName)
		if err != nil {
			cliutil.Usagef("nvsweep: %v", err)
		}
		density, err := encodedDensity(kind, *proxySparsity)
		if err != nil {
			log.Fatal(err)
		}
		cfg.CapacityBits = int64(float64(cfg.CapacityBits) * density)
		fmt.Fprintf(os.Stderr, "nvsweep: encoding %v stores %.1f%% of the dense clustered bits; sweeping %.2f MB effective capacity\n",
			kind, 100*density, float64(cfg.CapacityBits)/8e6)
	}
	if *xbar.Enabled {
		// Crossbar compute-in-memory capacity: every weight occupies a
		// differential device pair, plus the spare columns the online
		// remapper draws from — there is no compressed encoding to
		// density-scale. The first -tile entry sizes the array; the dense
		// clustered proxy (4-bit indices, same as encodedDensity) is the
		// reference the -mb capacity was stated in.
		if *encName != "" {
			cliutil.Usagef("nvsweep: -crossbar stores weights as conductances, not encoded bits; drop -encoding")
		}
		xcfgs, err := xbar.Configs(tech)
		if err != nil {
			cliutil.Usagef("nvsweep: %v", err)
		}
		xc := xcfgs[0]
		const proxyIdxBits = 4
		overhead := float64(xc.SpareCols) / float64(xc.Cols)
		cells := 2 * (1 + overhead)
		factor := cells * float64(*bpc) / proxyIdxBits
		cfg.CapacityBits = int64(float64(cfg.CapacityBits) * factor)
		fmt.Fprintf(os.Stderr, "nvsweep: crossbar %dx%d tiles store %.2f cells/weight (differential pair + %.1f%% spare columns) at %d bit/cell = %.1f bits/weight vs %d-bit dense indices; sweeping %.2f MB effective capacity\n",
			xc.Rows, xc.Cols, cells, 100*overhead, *bpc, cells*float64(*bpc), proxyIdxBits,
			float64(cfg.CapacityBits)/8e6)
	}
	if err := nvsim.Validate(cfg); err != nil {
		log.Fatal(err)
	}

	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()

	// One campaign config per organization point; the characterization is
	// a pure function of the organization, so the campaign gives the sweep
	// parallelism, cancellation, and checkpoint/resume for free.
	orgs := nvsim.Organizations()
	labels := make([]string, len(orgs))
	byLabel := make(map[string]nvsim.Organization, len(orgs))
	for i, o := range orgs {
		labels[i] = fmt.Sprintf("b%02d_m%02d_w%03d", o.Banks, o.Mats, o.DataWidth)
		byLabel[labels[i]] = o
	}
	run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		org, ok := byLabel[t.Config]
		if !ok {
			return campaign.Sample{}, fmt.Errorf("nvsweep: unknown organization %q", t.Config)
		}
		r, feasible := nvsim.CharacterizeOrg(cfg, org)
		if !feasible {
			return campaign.Sample{}, fmt.Errorf("nvsweep: organization %q infeasible", t.Config)
		}
		return campaign.Sample{
			Value: nvsim.Score(r, target),
			Extra: map[string]float64{
				"rows": float64(r.Rows), "cols": float64(r.Cols),
				"area": r.AreaMM2, "lat": r.ReadLatencyNs, "pj": r.ReadEnergyPJ,
				"gbs": r.ReadBandwidthGBs, "leak": r.LeakageMW, "wsec": r.WriteTimeSec,
			},
		}, nil
	}
	opt := campaign.Options{
		Seed:           1,
		MaxTrials:      *maxTrials,
		CITarget:       *ciTarget,
		Workers:        *workers,
		TrialTimeout:   *timeout,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Fsync:          tel.SyncPolicy(),
		LockCheckpoint: tel.LockCheckpoint(),
	}
	if *progress > 0 {
		opt.Progress = os.Stderr
		opt.ProgressEvery = *progress
	}
	var res *campaign.Result
	var runErr error
	if *fleetN > 0 {
		res, runErr = cliutil.FleetRun(ctx, *fleetN, *fleetDir, labels, run, opt)
		if runErr != nil {
			log.Fatal(runErr)
		}
	} else {
		c, err := campaign.New(labels, run, opt)
		if err != nil {
			log.Fatal(err)
		}
		res, runErr = c.Run(ctx)
		if runErr != nil && (res == nil || !res.Interrupted) {
			log.Fatal(runErr)
		}
	}

	var points []nvsim.Result
	for _, cr := range res.Configs {
		if cr.N == 0 {
			continue
		}
		o := byLabel[cr.Config]
		points = append(points, nvsim.Result{
			Tech: tech.Name, BPC: *bpc, Capacity: cfg.CapacityBits,
			Banks: o.Banks, Mats: o.Mats, DataWidth: o.DataWidth,
			Rows: int(cr.Extra["rows"]), Cols: int(cr.Extra["cols"]),
			AreaMM2: cr.Extra["area"], ReadLatencyNs: cr.Extra["lat"],
			ReadEnergyPJ: cr.Extra["pj"], ReadBandwidthGBs: cr.Extra["gbs"],
			LeakageMW: cr.Extra["leak"], WriteTimeSec: cr.Extra["wsec"],
		})
	}

	header := func() {
		fmt.Printf("%6s %5s %5s %9s %9s %10s %12s %10s %10s\n",
			"banks", "mats", "width", "rows", "cols", "area mm2", "latency ns", "pJ/access", "GB/s")
	}
	row := func(r nvsim.Result) {
		fmt.Printf("%6d %5d %5d %9d %9d %10.3f %12.2f %10.2f %10.2f\n",
			r.Banks, r.Mats, r.DataWidth, r.Rows, r.Cols,
			r.AreaMM2, r.ReadLatencyNs, r.ReadEnergyPJ, r.ReadBandwidthGBs)
	}

	if *outPath != "" && len(points) > 0 {
		data, err := json.MarshalIndent(points, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		// Atomic replace: an interrupted dump leaves the previous file, not
		// half a JSON array.
		if err := durable.WriteFileAtomic(nil, *outPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "nvsweep: wrote %d points to %s\n", len(points), *outPath)
	}

	fmt.Printf("%s, %.1f MB, %d bit/cell (%d/%d organizations characterized, %d reused)\n",
		tech.Name, *capMB, *bpc, len(points), len(orgs), res.Reused)
	switch {
	case *full:
		header()
		for _, r := range points {
			row(r)
		}
	case *pareto:
		fmt.Println("Pareto frontier (area x latency x energy):")
		header()
		for _, r := range nvsim.Pareto(points) {
			row(r)
		}
	default:
		if len(points) == 0 {
			log.Fatal("nvsweep: no organization characterized")
		}
		best := points[0]
		for _, p := range points[1:] {
			if nvsim.Score(p, target) < nvsim.Score(best, target) {
				best = p
			}
		}
		header()
		row(best)
		fmt.Printf("write time (full array): %.4g s; leakage %.3f mW\n", best.WriteTimeSec, best.LeakageMW)
	}
	if res.Interrupted {
		tel.ExitInterrupted("sweep", "sweeps", *checkpoint)
	}
}

// encodedDensity estimates an encoding's storage density — encoded bits
// as a fraction of the dense clustered baseline — over a synthetic
// pruned+clustered proxy layer (256x256 weights, 4-bit cluster indices,
// index 0 = pruned). Good enough to size an array for an encoded model
// without training one; the measured pipeline (faultsim
// -compare-encodings) reports exact per-model numbers.
func encodedDensity(kind sparse.Kind, sparsity float64) (float64, error) {
	if sparsity < 0 || sparsity >= 1 {
		return 0, fmt.Errorf("nvsweep: proxy sparsity %v must be in [0, 1)", sparsity)
	}
	const rows, cols, idxBits = 256, 256, 4
	src := stats.NewSource(12)
	indices := make([]uint8, rows*cols)
	for i := range indices {
		if !src.Bernoulli(sparsity) {
			indices[i] = uint8(1 + src.Intn(1<<idxBits-1))
		}
	}
	// Centroid table for magnitude-based 2-of-4 selection: index 0 is the
	// pruned zero, the rest spread over [-1, 1].
	centroids := make([]float32, 1<<idxBits)
	for i := 1; i < len(centroids); i++ {
		centroids[i] = float32(i)/float32(len(centroids)-1)*2 - 1
	}
	cl := &quant.Clustered{Rows: rows, Cols: cols, IndexBits: idxBits, Centroids: centroids, Indices: indices}
	enc, err := ares.EncodeLayer(cl, ares.Config{Encoding: kind})
	if err != nil {
		return 0, err
	}
	return float64(enc.SizeBits()) / float64(rows*cols*idxBits), nil
}
