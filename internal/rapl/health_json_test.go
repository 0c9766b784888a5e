package rapl

import (
	"encoding/json"
	"testing"
)

// TestHealthJSONRoundTrip pins the JSON shape of a degradation tally: every
// field must survive marshal/unmarshal exactly, and merged tallies must
// aggregate the same whether Add runs before or after the trip.
func TestHealthJSONRoundTrip(t *testing.T) {
	h := Health{
		Reads:           101,
		Retries:         7,
		Interpolated:    3,
		Fallbacks:       2,
		Discontinuities: 1,
		Quarantined:     4,
		Resets:          5,
	}
	blob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Health
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip drifted: sent %+v, got %+v", h, back)
	}
	if !back.Degraded() {
		t.Error("degradation flag lost in the round trip")
	}

	// Field names are the stable lower-case JSON names.
	var fields map[string]int
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"reads", "retries", "interpolated", "fallbacks", "discontinuities", "quarantined", "resets"} {
		if _, ok := fields[name]; !ok {
			t.Errorf("JSON field %q missing from %s", name, blob)
		}
	}

	// Zero value round-trips to zero value — a clean run reports clean.
	var zero Health
	blob, err = json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	var zback Health
	if err := json.Unmarshal(blob, &zback); err != nil {
		t.Fatal(err)
	}
	if zback != (Health{}) || zback.Degraded() {
		t.Errorf("zero health round-tripped to %+v", zback)
	}
}

// TestHealthAddMerge: aggregation must commute with a JSON round trip —
// unmarshal(a)+unmarshal(b) equals the field-wise sums, for every field.
func TestHealthAddMerge(t *testing.T) {
	a := Health{Reads: 10, Retries: 1, Interpolated: 2, Resets: 3}
	b := Health{Reads: 5, Fallbacks: 4, Discontinuities: 1, Quarantined: 2, Resets: 1}

	trip := func(h Health) Health {
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var back Health
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		return back
	}

	want := Health{
		Reads:           15,
		Retries:         1,
		Interpolated:    2,
		Fallbacks:       4,
		Discontinuities: 1,
		Quarantined:     2,
		Resets:          4,
	}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	if got := trip(a).Add(trip(b)); got != want {
		t.Errorf("Add after round trip = %+v, want %+v", got, want)
	}
	if got := trip(a.Add(b)); got != want {
		t.Errorf("round trip after Add = %+v, want %+v", got, want)
	}
	if a.Add(b) != b.Add(a) {
		t.Error("Add is not commutative")
	}
}
