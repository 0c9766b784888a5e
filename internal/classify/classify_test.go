package classify

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"jepo/internal/dataset"
)

func TestFPRounding(t *testing.T) {
	x := 0.1
	if Double.R(x) != x {
		t.Error("double mode must be identity")
	}
	if Single.R(x) == x {
		t.Error("single mode must round 0.1 through float32")
	}
	if Single.R(x) != float64(float32(x)) {
		t.Error("single mode must equal float32 round-trip")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRNG(0) // zero seed remapped, must not panic or stick
	if r.Next() == r.Next() {
		t.Error("rng stuck")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Error("argmax wrong")
	}
	if ArgMax([]float64{5, 5, 5}) != 0 {
		t.Error("tie must pick first")
	}
}

func encDataset() *dataset.Dataset {
	d := dataset.New("enc", 2,
		dataset.NewNumeric("x"),
		dataset.NewNominal("c", "a", "b", "c"),
		dataset.NewNominal("y", "n", "p"),
	)
	d.Add([]float64{1, 0, 0})
	d.Add([]float64{3, 1, 1})
	d.Add([]float64{5, 2, 0})
	return d
}

func TestEncoderLayout(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	if e.Dim() != 4 { // 1 numeric + 3 one-hot; class excluded
		t.Fatalf("dim = %d, want 4", e.Dim())
	}
	var out Sparse
	e.EncodeSparse(d.X[1], &out)
	// The numeric value 3 is the mean, so it standardizes to 0 and is
	// omitted; the nominal value 1 is feature 1+1.
	if !reflect.DeepEqual(out.Idx, []int32{2}) || !reflect.DeepEqual(out.Val, []float64{1}) {
		t.Errorf("encoded = %v %v, want [2] [1]", out.Idx, out.Val)
	}
}

func TestEncoderHandlesConstantColumn(t *testing.T) {
	d := dataset.New("const", 1, dataset.NewNumeric("x"), dataset.NewNominal("y", "a", "b"))
	d.Add([]float64{2, 0})
	d.Add([]float64{2, 1})
	e := NewEncoder(d)
	var out Sparse
	e.EncodeSparse(d.X[0], &out)
	for _, v := range out.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Error("constant column produced non-finite feature")
		}
	}
}

func TestEncodeRows(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	x, y := e.EncodeRows(d)
	if len(x) != 3 || len(y) != 3 {
		t.Fatal("shape wrong")
	}
	if y[0] != 0 || y[1] != 1 {
		t.Error("labels wrong")
	}
	for i, row := range d.X {
		var want Sparse
		e.EncodeSparse(row, &want)
		if !reflect.DeepEqual(x[i].Idx, want.Idx) || !reflect.DeepEqual(x[i].Val, want.Val) {
			t.Errorf("row %d = %v %v, want %v %v", i, x[i].Idx, x[i].Val, want.Idx, want.Val)
		}
	}
}

// TestEncodeSparse checks hand-computed encodings. The schema puts the class
// between two numerics: c (3 values) is features 0–2, x is 3, the class y
// has no feature, and z is 4. The fitting rows give x mean 3, std 2 and z
// mean 20, std 10. Every case reuses one dst, longest row first, so a stale
// entry from an earlier row would show.
func TestEncodeSparse(t *testing.T) {
	d := dataset.New("sparse", 2,
		dataset.NewNominal("c", "a", "b", "c"),
		dataset.NewNumeric("x"),
		dataset.NewNominal("y", "n", "p"),
		dataset.NewNumeric("z"),
	)
	d.Add([]float64{0, 1, 0, 10})
	d.Add([]float64{1, 5, 1, 30})
	e := NewEncoder(d)
	nan := math.NaN()
	cases := []struct {
		name string
		row  []float64
		idx  []int32
		val  []float64
	}{
		{"all nonzero", []float64{2, 5, 0, 30}, []int32{2, 3, 4}, []float64{1, 1, 1}},
		{"numerics at their mean are omitted", []float64{0, 3, 1, 20}, []int32{0}, []float64{1}},
		{"out-of-range nominal is dropped", []float64{3, 7, 0, 0}, []int32{3, 4}, []float64{2, -2}},
		{"negative nominal is dropped, NaN numeric kept", []float64{-1, nan, 0, 25}, []int32{3, 4}, []float64{nan, 0.5}},
		{"class cell is ignored", []float64{1, 1, 7, 20}, []int32{1, 3}, []float64{1, -1}},
	}
	var dst Sparse
	for _, tc := range cases {
		e.EncodeSparse(tc.row, &dst)
		if !reflect.DeepEqual(dst.Idx, tc.idx) || len(dst.Val) != len(tc.val) {
			t.Errorf("%s: got %v %v, want %v %v", tc.name, dst.Idx, dst.Val, tc.idx, tc.val)
			continue
		}
		for k, v := range tc.val {
			if math.Float64bits(dst.Val[k]) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(dst.Val[k])) {
				t.Errorf("%s: val[%d] = %v, want %v", tc.name, k, dst.Val[k], v)
			}
		}
		for k := 1; k < len(dst.Idx); k++ {
			if dst.Idx[k] <= dst.Idx[k-1] {
				t.Errorf("%s: indices not ascending: %v", tc.name, dst.Idx)
			}
		}
	}
}

// Property: encoding never produces non-finite features for in-schema rows.
func TestEncoderFiniteProperty(t *testing.T) {
	d := encDataset()
	e := NewEncoder(d)
	var out Sparse
	f := func(x float64, nom uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		row := []float64{math.Mod(x, 1e6), float64(nom % 3), 0}
		e.EncodeSparse(row, &out)
		for _, v := range out.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
