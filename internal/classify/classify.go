// Package classify is the WEKA substrate: from-scratch implementations of
// the ten classifiers the paper's Table II/IV evaluate — J48 (C4.5),
// RandomTree, RandomForest, REPTree, NaiveBayes, Logistic (ridge), SMO, SGD,
// KStar and IBk — over the dataset package's instances, plus stratified
// cross-validation in the eval subpackage.
//
// Every classifier supports a single-precision mode in which key numeric
// accumulations are rounded through float32. This reproduces the paper's
// accuracy-drop mechanism: its Table IV notes "there was precision loss when
// we changed double to float or long to int".
package classify

import (
	"jepo/internal/dataset"
)

// Classifier is the common training/prediction interface.
type Classifier interface {
	// Name is the WEKA-style display name.
	Name() string
	// Train fits the model to the dataset.
	Train(d *dataset.Dataset) error
	// Predict returns the predicted class index for a row laid out in the
	// training schema (the class cell is ignored).
	Predict(row []float64) int
}

// FP controls numeric precision. The zero value is double precision; Single
// rounds accumulations through float32, reproducing a double→float refactor.
type FP bool

// Precision modes.
const (
	Double FP = false
	Single FP = true
)

// R rounds a value according to the precision mode.
func (fp FP) R(x float64) float64 {
	if fp {
		return float64(float32(x))
	}
	return x
}

// Options configure classifier construction.
type Options struct {
	Seed uint64
	FP   FP
}

// RNG is the deterministic generator shared by the randomized classifiers.
type RNG struct{ s uint64 }

// NewRNG seeds a generator (seed 0 is remapped to a fixed constant).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Next returns the next 64 random bits (SplitMix64).
func (r *RNG) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// Encoder maps dataset rows to sparse feature vectors: numeric attributes are
// standardized, nominal attributes are one-hot encoded, and only the nonzero
// features are kept. The linear models (Logistic, SGD, SMO) share it.
type Encoder struct {
	attrs    []*dataset.Attribute
	classIdx int
	offsets  []int // feature offset per attribute (-1 for the class)
	dim      int
	mean     []float64 // per numeric attr
	std      []float64
}

// Sparse is an encoded row as its nonzero features: Val[k] is the value of
// feature Idx[k], and Idx ascends.
type Sparse struct {
	Idx []int32
	Val []float64
}

// NewEncoder builds an encoder for the dataset's schema and fits the numeric
// standardization to its rows.
func NewEncoder(d *dataset.Dataset) *Encoder {
	e := &Encoder{attrs: d.Attrs, classIdx: d.ClassIdx}
	e.offsets = make([]int, len(d.Attrs))
	e.mean = make([]float64, len(d.Attrs))
	e.std = make([]float64, len(d.Attrs))
	for j, a := range d.Attrs {
		if j == d.ClassIdx {
			e.offsets[j] = -1
			continue
		}
		e.offsets[j] = e.dim
		if a.Kind == dataset.Nominal {
			e.dim += a.NumValues()
		} else {
			m, s, _ := d.NumericStats(j, -1)
			if s == 0 {
				s = 1
			}
			e.mean[j], e.std[j] = m, s
			e.dim++
		}
	}
	return e
}

// Dim is the encoded feature dimension.
func (e *Encoder) Dim() int { return e.dim }

// EncodeSparse overwrites dst with the nonzero features of row, in ascending
// feature order. A nominal value in range yields a single 1; one out of range
// yields nothing. A numeric value yields its standardized value unless that
// is exactly zero (NaN is kept). A dst without capacity gets room for the
// widest row.
func (e *Encoder) EncodeSparse(row []float64, dst *Sparse) {
	if cap(dst.Idx) == 0 {
		dst.Idx, dst.Val = make([]int32, 0, len(e.attrs)), make([]float64, 0, len(e.attrs))
	}
	dst.Idx, dst.Val = dst.Idx[:0], dst.Val[:0]
	for j, a := range e.attrs {
		if j == e.classIdx {
			continue
		}
		off := e.offsets[j]
		if a.Kind == dataset.Nominal {
			v := int(row[j])
			if v >= 0 && v < a.NumValues() {
				dst.Idx = append(dst.Idx, int32(off+v))
				dst.Val = append(dst.Val, 1)
			}
			continue
		}
		if x := (row[j] - e.mean[j]) / e.std[j]; x != 0 {
			dst.Idx = append(dst.Idx, int32(off))
			dst.Val = append(dst.Val, x)
		}
	}
}

// EncodeRows encodes every row of d plus its class label. The rows share
// one backing array.
func (e *Encoder) EncodeRows(d *dataset.Dataset) ([]Sparse, []int) {
	n, w := d.NumInstances(), len(e.attrs)-1
	x := make([]Sparse, n)
	y := make([]int, n)
	idx := make([]int32, n*w)
	val := make([]float64, n*w)
	for i, row := range d.X {
		x[i] = Sparse{Idx: idx[i*w : i*w : (i+1)*w], Val: val[i*w : i*w : (i+1)*w]}
		e.EncodeSparse(row, &x[i])
		y[i] = d.Class(i)
	}
	return x, y
}

// ArgMax returns the index of the largest value (first on ties).
func ArgMax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
