package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// expectedJSON pins outputs by SHA-256: the Table IV header, each Table IV
// row of the default seed's first runs, and each classifier's corpus view at
// the default seed.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutputs struct {
	Seed         uint64            `json:"seed"`
	Table4Header string            `json:"table4_header"`
	Table4       [][]string        `json:"table4"` // [run][row]
	Corpus       map[string]string `json:"corpus"`
}

var expected = func() expectedOutputs {
	var e expectedOutputs
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("expected.json: " + err.Error()) // the file is embedded at build time
	}
	return e
}()

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an output with its pinned digest and reports a
// mismatch on standard error with the observed digest, which is what a
// maintainer pins after an intended output change.
func checkDigest(what, out string, pinned []string, i int) bool {
	got := digest(out)
	if i < len(pinned) && pinned[i] == got {
		return true
	}
	fmt.Fprintf(os.Stderr, "jepobench: %s: digest %s does not match expected.json\n", what, got)
	return false
}
