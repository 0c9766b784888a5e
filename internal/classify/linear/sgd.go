package linear

import (
	"fmt"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// SGD is WEKA's stochastic-gradient-descent learner with hinge loss (linear
// SVM objective), binary classes, over one-hot encoded features.
type SGD struct {
	// Lambda is the regularization constant (WEKA -R, default 1e-4).
	Lambda float64
	// Epochs is the number of passes (WEKA -E, default 500; a smaller
	// default keeps the harness fast and converges on this data).
	Epochs int
	// LearningRate (WEKA -L, default 0.01).
	LearningRate float64

	opts classify.Options
	enc  *classify.Encoder
	w    []float64
	bias float64
}

// NewSGD builds an SGD learner with stock parameters.
func NewSGD(opts classify.Options) *SGD {
	return &SGD{Lambda: 1e-4, Epochs: 50, LearningRate: 0.01, opts: opts}
}

// Name implements Classifier.
func (c *SGD) Name() string { return "SGD" }

// Train implements Classifier.
func (c *SGD) Train(d *dataset.Dataset) error {
	if d.NumInstances() == 0 {
		return fmt.Errorf("sgd: empty training set")
	}
	if d.NumClasses() != 2 {
		return fmt.Errorf("sgd: hinge loss requires a binary class, got %d values", d.NumClasses())
	}
	c.enc = classify.NewEncoder(d)
	x, y := c.enc.EncodeRows(d)
	c.w = make([]float64, c.enc.Dim())
	c.bias = 0
	fp := c.opts.FP
	rng := classify.NewRNG(c.opts.Seed)
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < c.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		lr := c.LearningRate / (1 + float64(epoch)*0.1)
		for _, i := range order {
			t := float64(2*y[i] - 1) // {0,1} → {−1,+1}
			margin := fp.R(c.margin(x[i]) * t)
			// L2 shrinkage stays a dense pass: a lazily applied scale
			// factor would round differently.
			shrink := 1 - lr*c.Lambda
			for f := range c.w {
				if c.w[f] != 0 {
					c.w[f] = fp.R(c.w[f] * shrink)
				}
			}
			if margin < 1 {
				for n, f := range x[i].Idx {
					c.w[f] = fp.R(c.w[f] + lr*t*x[i].Val[n])
				}
				c.bias = fp.R(c.bias + lr*t)
			}
		}
	}
	return nil
}

func (c *SGD) margin(feat classify.Sparse) float64 {
	fp := c.opts.FP
	s := c.bias
	for n, f := range feat.Idx {
		s = fp.R(s + c.w[f]*feat.Val[n])
	}
	return s
}

// Predict implements Classifier.
func (c *SGD) Predict(row []float64) int {
	var feat classify.Sparse
	c.enc.EncodeSparse(row, &feat)
	if c.margin(feat) >= 0 {
		return 1
	}
	return 0
}
