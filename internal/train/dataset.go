// Package train provides the training substrate MaxNVM uses to obtain
// *measured* (rather than assumed) DNN classification error under fault
// injection: a procedurally generated MNIST-like dataset, an SGD trainer
// with full backpropagation for sequential convnets, and accuracy
// evaluation helpers.
//
// The paper trains LeNet5/VGG/ResNet on MNIST/CIFAR/ImageNet; those
// datasets and trainings are outside this repository's scope (see
// DESIGN.md substitutions), so we synthesize a classification task with
// the same structure — 10 classes of spatially structured images with
// intra-class variation — that a small convnet learns to high accuracy.
// Fault-injection experiments then observe real accuracy degradation.
package train

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Dataset is a labelled image classification dataset.
type Dataset struct {
	Images  *tensor.Tensor4
	Labels  []int
	Classes int
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.Images.N }

// The synthetic task: 10 classes, samples translated by up to one pixel
// and noised with standard deviation 0.15.
const (
	synthClasses = 10
	synthJitter  = 1
	synthNoise   = 0.15
)

// SynthConfig parameterizes synthetic dataset generation.
type SynthConfig struct {
	// N is the number of samples to generate.
	N int
	// H, W are the image dimensions (single channel).
	H, W int
	// Seed drives the per-sample jitter, amplitude and noise.
	Seed uint64
	// ProtoSeed seeds the class prototypes, which depend only on
	// ProtoSeed, H and W: train and test splits built with different
	// Seeds share prototypes when given the same ProtoSeed. Zero means
	// Seed ^ 0xabcdef.
	ProtoSeed uint64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.H == 0 {
		c.H = 12
	}
	if c.W == 0 {
		c.W = 12
	}
	if c.ProtoSeed == 0 {
		c.ProtoSeed = c.Seed ^ 0xabcdef
	}
	return c
}

// Synthesize generates a dataset per cfg. Each class has a prototype
// image composed of class-specific Gaussian blobs; samples are jittered,
// amplitude-scaled, and noised copies of their class prototype.
func Synthesize(cfg SynthConfig) *Dataset {
	cfg = cfg.withDefaults()
	protos := prototypes(cfg)
	src := stats.NewSource(cfg.Seed)
	ds := &Dataset{
		Images:  tensor.NewTensor4(cfg.N, 1, cfg.H, cfg.W),
		Labels:  make([]int, cfg.N),
		Classes: synthClasses,
	}
	for i := 0; i < cfg.N; i++ {
		class := i % synthClasses // balanced classes
		ds.Labels[i] = class
		img := ds.Images.Image(i)
		dy := src.Intn(2*synthJitter+1) - synthJitter
		dx := src.Intn(2*synthJitter+1) - synthJitter
		amp := float32(0.8 + 0.4*src.Float64())
		proto := protos[class]
		for y := 0; y < cfg.H; y++ {
			sy := y + dy
			for x := 0; x < cfg.W; x++ {
				sx := x + dx
				var v float32
				if sy >= 0 && sy < cfg.H && sx >= 0 && sx < cfg.W {
					v = proto[sy*cfg.W+sx]
				}
				v = amp*v + float32(src.Gaussian(0, synthNoise))
				img[y*cfg.W+x] = v
			}
		}
	}
	return ds
}

// prototypes builds one blob-composite image per class, deterministic in
// ProtoSeed.
func prototypes(cfg SynthConfig) [][]float32 {
	src := stats.NewSource(cfg.ProtoSeed)
	out := make([][]float32, synthClasses)
	for c := range out {
		cs := src.Fork(uint64(c) + 1)
		img := make([]float32, cfg.H*cfg.W)
		blobs := 3 + cs.Intn(3)
		for b := 0; b < blobs; b++ {
			cy := cs.Float64() * float64(cfg.H-1)
			cx := cs.Float64() * float64(cfg.W-1)
			sigma := 0.8 + cs.Float64()*1.5
			sign := 1.0
			if cs.Bernoulli(0.3) {
				sign = -1
			}
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					d2 := (float64(y)-cy)*(float64(y)-cy) + (float64(x)-cx)*(float64(x)-cx)
					img[y*cfg.W+x] += float32(sign * math.Exp(-d2/(2*sigma*sigma)))
				}
			}
		}
		out[c] = img
	}
	return out
}

// Batch copies samples [lo, hi) into a fresh tensor and label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor4, []int) {
	n := len(idx)
	imgSz := d.Images.C * d.Images.H * d.Images.W
	out := tensor.NewTensor4(n, d.Images.C, d.Images.H, d.Images.W)
	labels := make([]int, n)
	for i, j := range idx {
		copy(out.Data[i*imgSz:(i+1)*imgSz], d.Images.Image(j))
		labels[i] = d.Labels[j]
	}
	return out, labels
}

// Split returns views-by-copy of the first n and remaining samples.
func (d *Dataset) Split(n int) (*Dataset, *Dataset) {
	if n < 0 || n > d.N() {
		panic("train: Split size out of range")
	}
	first := make([]int, n)
	for i := range first {
		first[i] = i
	}
	rest := make([]int, d.N()-n)
	for i := range rest {
		rest[i] = n + i
	}
	aImg, aLab := d.Batch(first)
	bImg, bLab := d.Batch(rest)
	return &Dataset{Images: aImg, Labels: aLab, Classes: d.Classes},
		&Dataset{Images: bImg, Labels: bLab, Classes: d.Classes}
}
