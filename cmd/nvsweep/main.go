// Command nvsweep characterizes eNVM memory arrays (the NVSim-like flow):
// for a technology, capacity, and bits-per-cell it sweeps array
// organizations with nvsim.Sweep and prints either the full sweep, the
// Pareto frontier, or the single target-optimal point (nvsim.Characterize,
// the same pick Table 4 makes).
//
// Usage:
//
//	nvsweep -tech MLC-CTT -mb 12 -bpc 2 -target edp
//	nvsweep -tech SLC-RRAM -mb 32 -bpc 1 -pareto
//	nvsweep -mb 64 -bpc 2 -full -out sweep.json
//	nvsweep -techfile my-device.json -mb 8 -bpc 2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/ares"
	"repro/internal/cliutil"
	"repro/internal/crossbar"
	"repro/internal/durable"
	"repro/internal/envm"
	"repro/internal/nvsim"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// options is nvsweep's command line.
type options struct {
	tech, techFile, target, encoding, tile, out string
	capMB, sparsity                             float64
	bpc, spareCols                              int
	pareto, full, crossbar                      bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.tech, "tech", "MLC-CTT", "technology name")
	fs.StringVar(&o.techFile, "techfile", "", "JSON file with a custom technology definition (overrides -tech)")
	fs.Float64Var(&o.capMB, "mb", 4, "capacity in decimal MB")
	fs.IntVar(&o.bpc, "bpc", 1, "bits per cell")
	fs.StringVar(&o.target, "target", "edp", "optimization target: edp|area|latency|energy|leakage")
	fs.StringVar(&o.encoding, "encoding", "", "size the array for an encoded model: scale -mb by the encoding's density over a synthetic clustered proxy ("+strings.Join(sparse.KindNames(), "|")+"; empty = raw capacity)")
	fs.Float64Var(&o.sparsity, "sparsity", 0.9, "synthetic proxy sparsity for the -encoding density estimate")
	fs.BoolVar(&o.pareto, "pareto", false, "print the area/latency/energy Pareto frontier")
	fs.BoolVar(&o.full, "full", false, "print every organization")
	fs.StringVar(&o.out, "out", "", "write the characterized points as JSON to this path (atomic replace)")
	fs.BoolVar(&o.crossbar, "crossbar", false, "size the array for crossbar compute-in-memory weights (differential conductance pairs plus spare columns) instead of a stored-bit encoding")
	fs.StringVar(&o.tile, "tile", "64x32", "crossbar tile size as ROWSxCOLS")
	fs.IntVar(&o.spareCols, "spare-cols", 4, "spare columns per crossbar tile for online remapping")
}

// usageError is a bad flag value or a conflicting flag combination.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := o.run(os.Stdout, os.Stderr); err != nil {
		if errors.As(err, new(usageError)) {
			cliutil.Usagef("%v", err)
		}
		log.Fatal(err)
	}
}

func (o *options) run(stdout, stderr io.Writer) error {
	var tech envm.Tech
	var err error
	if o.techFile != "" {
		f, ferr := os.Open(o.techFile)
		if ferr != nil {
			return usagef("nvsweep: %v", ferr)
		}
		tech, err = envm.LoadTech(f)
		f.Close()
	} else {
		tech, err = envm.ByName(o.tech)
	}
	if err != nil {
		return usagef("nvsweep: %v", err)
	}
	var target nvsim.Target
	switch strings.ToLower(o.target) {
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
		return usagef("nvsweep: unknown target %q", o.target)
	}
	if o.crossbar && o.encoding != "" {
		return usagef("nvsweep: -crossbar stores weights as conductances, not encoded bits; drop -encoding")
	}

	cfg := nvsim.Config{
		Tech: tech, BPC: o.bpc,
		CapacityBits: int64(o.capMB * 8e6),
		Target:       target,
	}
	if o.encoding != "" {
		kind, err := sparse.ParseKind(o.encoding)
		if err != nil {
			return usagef("nvsweep: %v", err)
		}
		if o.sparsity < 0 || o.sparsity >= 1 {
			return usagef("nvsweep: proxy sparsity %v must be in [0, 1)", o.sparsity)
		}
		density, err := encodedDensity(kind, o.sparsity)
		if err != nil {
			return err
		}
		cfg.CapacityBits = int64(float64(cfg.CapacityBits) * density)
		fmt.Fprintf(stderr, "nvsweep: encoding %v stores %.1f%% of the dense clustered bits; sweeping %.2f MB effective capacity\n",
			kind, 100*density, float64(cfg.CapacityBits)/8e6)
	}
	if o.crossbar {
		// Crossbar compute-in-memory capacity: every weight occupies a
		// differential device pair, plus the spare columns the online
		// remapper draws from — there is no compressed encoding to
		// density-scale. The dense clustered proxy (4-bit indices, same as
		// encodedDensity) is the reference the -mb capacity was stated in.
		rows, cols, err := cliutil.ParseTile(o.tile)
		if err != nil {
			return usagef("nvsweep: %v", err)
		}
		if err := (crossbar.Config{Rows: rows, Cols: cols, SpareCols: o.spareCols}).Validate(); err != nil {
			return usagef("nvsweep: %v", err)
		}
		const proxyIdxBits = 4
		overhead := float64(o.spareCols) / float64(cols)
		cells := 2 * (1 + overhead)
		factor := cells * float64(o.bpc) / proxyIdxBits
		cfg.CapacityBits = int64(float64(cfg.CapacityBits) * factor)
		fmt.Fprintf(stderr, "nvsweep: crossbar %dx%d tiles store %.2f cells/weight (differential pair + %.1f%% spare columns) at %d bit/cell = %.1f bits/weight vs %d-bit dense indices; sweeping %.2f MB effective capacity\n",
			rows, cols, cells, 100*overhead, o.bpc, cells*float64(o.bpc), proxyIdxBits,
			float64(cfg.CapacityBits)/8e6)
	}

	points, err := nvsim.Sweep(cfg)
	if err != nil {
		return usagef("nvsweep: %v", err)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(points, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		// Atomic replace: an interrupted dump leaves the previous file, not
		// half a JSON array.
		if err := durable.WriteFileAtomic(nil, o.out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "nvsweep: wrote %d points to %s\n", len(points), o.out)
	}

	header := func() {
		fmt.Fprintf(stdout, "%6s %5s %5s %9s %9s %10s %12s %10s %10s\n",
			"banks", "mats", "width", "rows", "cols", "area mm2", "latency ns", "pJ/access", "GB/s")
	}
	row := func(r nvsim.Result) {
		fmt.Fprintf(stdout, "%6d %5d %5d %9d %9d %10.3f %12.2f %10.2f %10.2f\n",
			r.Banks, r.Mats, r.DataWidth, r.Rows, r.Cols,
			r.AreaMM2, r.ReadLatencyNs, r.ReadEnergyPJ, r.ReadBandwidthGBs)
	}
	fmt.Fprintf(stdout, "%s, %.1f MB, %d bit/cell (%d organizations)\n", tech.Name, o.capMB, o.bpc, len(points))
	switch {
	case o.full:
		header()
		for _, r := range points {
			row(r)
		}
	case o.pareto:
		fmt.Fprintln(stdout, "Pareto frontier (area x latency x energy):")
		header()
		for _, r := range nvsim.Pareto(points) {
			row(r)
		}
	default:
		best := nvsim.Characterize(cfg)
		header()
		row(best)
		fmt.Fprintf(stdout, "write time (full array): %.4g s; leakage %.3f mW\n", best.WriteTimeSec, best.LeakageMW)
	}
	return nil
}

// encodedDensity estimates an encoding's storage density — encoded bits
// as a fraction of the dense clustered baseline — over a synthetic
// pruned+clustered proxy layer (256x256 weights, 4-bit cluster indices,
// index 0 = pruned) at the given sparsity in [0, 1). Good enough to size
// an array for an encoded model without training one; the measured
// pipeline (faultsim -compare-encodings) reports exact per-model numbers.
func encodedDensity(kind sparse.Kind, sparsity float64) (float64, error) {
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
