// Command maxnvm regenerates the paper's tables and figures from the
// MaxNVM reproduction.
//
// Usage:
//
//	maxnvm [flags] <experiment>...
//
// Experiments: fig1 fig2 table2 fig5 fig6 fig8 fig9 fig10 fig11 table4
// table5 headlines all
//
// Flags:
//
//	-model      restrict per-model experiments (fig6) to one model
//	-models     comma-separated model set for the multi-model tables
//	-seed       experiment seed (default 1)
//	-cap        per-layer weight cap for profiling (default 262144)
//	-trials     damage probe trials (default 3)
//	-max-trials fig5 campaign trial budget per configuration (default 12)
//	-min-trials fig5 campaign trials before early stopping may trigger
//	-ci-target  fig5 adaptive early stop CI half-width (0 = full budget)
//
// SIGINT cancels the run between experiments, and mid-campaign for
// fig5. The Figure 5 campaign takes under a second; to run it resumably
// or across processes, use campaignd plan -spec fig5.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exper"
)

func main() {
	model := flag.String("model", "", "single model for fig6 (default: all)")
	modelsFlag := flag.String("models", "LeNet5,VGG12,VGG16,ResNet50", "model set")
	seed := flag.Uint64("seed", 1, "experiment seed")
	capW := flag.Int("cap", 1<<18, "per-layer weight cap for profiling")
	trials := flag.Int("trials", 3, "damage probe trials")
	maxTrials := flag.Int("max-trials", 12, "fig5 campaign trial budget per configuration")
	minTrials := flag.Int("min-trials", 4, "fig5 campaign trials before early stopping may trigger")
	ciTarget := flag.Float64("ci-target", 0, "fig5 early stop: 95% CI half-width target on the error delta (0 = full budget)")
	tel := cliutil.AddFlags()
	flag.Parse()
	tel.Start()
	defer tel.Dump()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: maxnvm [flags] <fig1|fig2|table2|itn|fig5|fig6|fig8|fig9|fig10|fig11|table4|table5|perlayer|ablations|headlines|all>...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()

	env := exper.NewEnv(*seed)
	env.MaxLayerWeights = *capW
	env.DamageTrials = *trials
	models := strings.Split(*modelsFlag, ",")

	fig6Models := models
	if *model != "" {
		fig6Models = []string{*model}
	}

	var run func(name string)
	run = func(name string) {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "maxnvm: interrupted")
			tel.Dump() // os.Exit skips the deferred dump
			os.Exit(130)
		}
		w := os.Stdout
		switch name {
		case "fig1":
			env.Fig1(w)
		case "fig2":
			env.Fig2(w)
		case "table2":
			env.Table2(w, models)
		case "fig5":
			if err := env.Fig5(ctx, w, *maxTrials, *minTrials, *ciTarget); err != nil {
				if ctx.Err() != nil {
					fmt.Fprintln(os.Stderr, "fig5: interrupted")
					tel.Dump()
					os.Exit(130)
				}
				fmt.Fprintln(os.Stderr, "fig5:", err)
				os.Exit(1)
			}
		case "fig6":
			for _, m := range fig6Models {
				env.Fig6(w, m)
			}
		case "fig8":
			env.Fig8(w, models)
		case "fig9":
			env.Fig9(w)
		case "fig10":
			env.Fig10(w)
		case "fig11":
			env.Fig11(w)
		case "table4":
			env.Table4(w, modelsWithout(models, "LeNet5"))
		case "table5":
			env.Table5(w, modelsWithout(models, "LeNet5"))
		case "headlines":
			env.Headlines(w)
		case "itn":
			if err := env.ITN(w, 0); err != nil {
				fmt.Fprintln(os.Stderr, "itn:", err)
				os.Exit(1)
			}
		case "perlayer":
			env.PerLayer(w, models)
		case "ablations":
			env.Ablations(w)
		case "writepath":
			env.WritePath(w)
		case "rnn":
			env.RNN(w)
		case "retention":
			env.Retention(w, "VGG12")
		case "all":
			for _, x := range []string{"fig1", "fig2", "table2", "itn", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "table4", "table5", "perlayer", "writepath", "retention", "rnn", "ablations", "headlines"} {
				run(x)
				fmt.Fprintln(w)
			}
		default:
			cliutil.Usagef("maxnvm: unknown experiment %q", name)
		}
	}
	for _, name := range flag.Args() {
		run(name)
		fmt.Println()
	}
}

// modelsWithout filters a name out of the set (Table 4/5 cover the three
// larger models only).
func modelsWithout(models []string, drop string) []string {
	var out []string
	for _, m := range models {
		if m != drop {
			out = append(out, m)
		}
	}
	return out
}
