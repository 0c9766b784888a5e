package svm

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

// trainedBits pins the exact bits of SMO's trained state (alpha, b, w) and
// of 200 held-out predictions on airlines data, per seed, precision and
// kernel exponent. Any change to the order or operands of the training or
// decision arithmetic changes a digest.
var trainedBits = map[string]string{
	"seed1/single=false/exp1": "0c26a0b689405862d5a2529b2c691880c6a790fd0c20e4d03b7645106bc55c47",
	"seed1/single=false/exp2": "60cdc8f6597174fe58983196759f865bcb55a705e0315275c7e1763ff4e1eec7",
	"seed1/single=true/exp1":  "b1a6caf6619c9bbe3d5dba64ec5a57ef08f5cc8cfbcf3fecffc61119af5a3f89",
	"seed1/single=true/exp2":  "9f2e5ec4baf69e25a4074b033a38ca11ccd788f365d94c497961b110d9fd3500",
	"seed2/single=false/exp1": "f984459917e05b0c991bc5d53e92b780e3c4df268ffb6e57bacff943cd5752bf",
	"seed2/single=false/exp2": "a936d7836ab2b921e4a413d473d8876b123cafb22ab6ff81e6dfefc0f07ec676",
	"seed2/single=true/exp1":  "3e7c6a2324d3d340dde79c42f97b7b3aba3c3d1d3b85135c89d4a422ce84550b",
	"seed2/single=true/exp2":  "04744c9e37476ce0e6c9539afbf6fdbeb97263e3451be350b86a9f5fca5d0229",
	"seed3/single=false/exp1": "a8fad6b0c0a90bbdf22467c170f966fa8ab9f32bcd79cceced63e7fa47f150a0",
	"seed3/single=false/exp2": "25ea92f782f32f86de9ef23ef1598d68b5daf39391ccc4351d3769ce51dec52d",
	"seed3/single=true/exp1":  "7ef83c5bc610855a756f0e1e284ceb45d511843dd9caa227d668428f587e1441",
	"seed3/single=true/exp2":  "3af91e574ac151fdad75b49eb76df8e9ba0814b95fbbc71a0417fdb257ea1851",
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
			for _, exp := range []int{1, 2} {
				name := fmt.Sprintf("seed%d/single=%v/exp%d", seed, bool(fp), exp)
				c := New(classify.Options{Seed: seed, FP: fp})
				c.Exponent = exp
				if err := c.Train(train); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				writeBits(h, c.alpha...)
				writeBits(h, c.b)
				writeBits(h, c.w...)
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
