package linear

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"jepo/internal/airlines"
	"jepo/internal/classify"
)

// trainedBits pins the exact bits of the trained weights (Logistic w; SGD w
// and bias) and of 200 held-out predictions on airlines data, per learner,
// seed and precision. Any change to the order or operands of the training
// or scoring arithmetic changes a digest.
var trainedBits = map[string]string{
	"Logistic/seed1/single=false": "fe7c8cc5f908f9d4ed3fe7220a24c5d5c8182c0db567757773fd3529003e1d33",
	"Logistic/seed1/single=true":  "56077c03eab3eb9ac5ebdf05ccccfa303073fd0f085c7036598e63749d52fe8d",
	"Logistic/seed2/single=false": "e0361b47504701fc8a17aad65eecbe1b1b03e3e111c4dae69d609eaa76203858",
	"Logistic/seed2/single=true":  "ec82851e45caa6f7a66041969f75f07ecd74d3e6d29b1d31579545c0305e62b9",
	"Logistic/seed3/single=false": "5115c07b292d51af78559057eb4e6f669e8e00af1899da94a20ac7287378aa47",
	"Logistic/seed3/single=true":  "85849dc3603a6936f345ec19baf30b1a89c4c74facf917c78f97b1db08f6d853",
	"SGD/seed1/single=false":      "dae4857df220b691f680c43155c86fcd4a1b808411ac7da90a141dadb2f546fa",
	"SGD/seed1/single=true":       "c67d63381f1a9ef6637c02763f3671bc47ad3fd9ebddbd506f7045c16c8a4b6c",
	"SGD/seed2/single=false":      "578795778bdb4582aa56959f440f0058825fcaa9b49167b705a749fe6e4592f3",
	"SGD/seed2/single=true":       "38c2008cce472628b433ca08384830023a9b332205c2d91605e7eae2ab33c13a",
	"SGD/seed3/single=false":      "371955458911634a2461ebe1a28fb8bc5028fc6d4795bd15892fc877efb94dc7",
	"SGD/seed3/single=true":       "f8b6e702217e90c6538f84b52a59109f6fcac882db87348fbdf852a568353992",
}

func writeBits(h hash.Hash, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

func TestTrainedBitsPinned(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		train := airlines.Generate(600, seed)
		test := airlines.Generate(200, seed+100)
		for _, fp := range []classify.FP{classify.Double, classify.Single} {
			opts := classify.Options{Seed: seed, FP: fp}
			lg, sg := NewLogistic(opts), NewSGD(opts)
			for _, c := range []classify.Classifier{lg, sg} {
				name := fmt.Sprintf("%s/seed%d/single=%v", c.Name(), seed, bool(fp))
				if err := c.Train(train); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				if c == lg {
					for _, wk := range lg.w {
						writeBits(h, wk...)
					}
				} else {
					writeBits(h, sg.w...)
					writeBits(h, sg.bias)
				}
				for _, row := range test.X {
					h.Write([]byte{byte(c.Predict(row))})
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != trainedBits[name] {
					t.Errorf("%q: %q, want %q", name, got, trainedBits[name])
				}
			}
		}
	}
}
