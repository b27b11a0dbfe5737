package reach

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crncompose/internal/crn"
)

// TestGridResultJSONRoundTrip pins the wire contract of the distributed
// checker: marshal → UnmarshalGridResult → marshal must reproduce the exact
// bytes, for all-OK, inconclusive, and refuted-with-witness results.
func TestGridResultJSONRoundTrip(t *testing.T) {
	c := minCRN()
	cases := map[string]GridResult{
		"ok":           {Checked: 16, Explored: 1234},
		"inconclusive": {Checked: 16, Inconclusive: 3, Explored: 99},
	}
	// A real refutation with a witness: a sum CRN claimed to compute min.
	f := func(x []int64) int64 { return min(x[0], x[1]) }
	refuted, err := CheckGrid(sumCRNClaimingMin(), f, []int64{0, 0}, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if refuted.OK() || refuted.Failure.Verdict.Witness == nil {
		t.Fatalf("expected refutation with witness, got %v", refuted)
	}
	cases["refuted"] = refuted

	for name, res := range cases {
		t.Run(name, func(t *testing.T) {
			crnFor := c
			if name == "refuted" {
				crnFor = sumCRNClaimingMin()
			}
			b1, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := UnmarshalGridResult(b1, crnFor)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("round trip changed bytes:\n%s\n%s", b1, b2)
			}
			if dec.Checked != res.Checked || dec.Inconclusive != res.Inconclusive || dec.Explored != res.Explored {
				t.Fatalf("counts changed: %+v vs %+v", dec, res)
			}
			if res.Failure != nil {
				if dec.Failure == nil {
					t.Fatal("failure dropped")
				}
				if dec.Failure.Verdict.Err.Error() != res.Failure.Verdict.Err.Error() {
					t.Fatalf("err changed: %q vs %q", dec.Failure.Verdict.Err, res.Failure.Verdict.Err)
				}
				// The decoded witness must replay on the rebound CRN.
				if _, err := dec.Failure.Verdict.Witness.Replay(); err != nil {
					t.Fatalf("decoded witness does not replay: %v", err)
				}
			}
		})
	}
}

// sumCRNClaimingMin computes x1+x2, so checking it against min refutes with
// an overproduction witness.
func sumCRNClaimingMin() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

// TestGridResultJSONFieldNamesMatchString pins the satellite contract: the
// human String() and the JSON form use the same vocabulary.
func TestGridResultJSONFieldNamesMatchString(t *testing.T) {
	res := GridResult{Checked: 4, Inconclusive: 1, Explored: 77,
		Failure: &GridFailure{Input: []int64{2, 0}, Want: 0, Verdict: Verdict{Err: ErrBudget}}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"checked"`, `"inconclusive"`, `"explored"`, `"failure"`, `"input"`, `"want"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("JSON %s lacks %s", b, field)
		}
	}
	for _, word := range []string{"checked", "inconclusive", "explored"} {
		if !strings.Contains(GridResult{Checked: 1}.String(), word) {
			t.Errorf("String() %q lacks %q", GridResult{Checked: 1}.String(), word)
		}
	}
	if !strings.Contains(res.String(), "input=") {
		t.Errorf("failure String() %q lacks input=", res.String())
	}
}

// TestUnmarshalGridResultBadWitness rejects a witness whose species count
// does not match the CRN it is being rebound to.
func TestUnmarshalGridResultBadWitness(t *testing.T) {
	data := []byte(`{"checked":1,"explored":2,"failure":{"input":[0],"want":0,` +
		`"verdict":{"ok":false,"err":"x","witness":{"start":[1,2,3,4,5,6,7,8,9],"reactions":[0]},"explored":2}}}`)
	if _, err := UnmarshalGridResult(data, minCRN()); err == nil {
		t.Fatal("mismatched witness width accepted")
	}
	if _, err := UnmarshalGridResult([]byte("{"), minCRN()); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// TestUnmarshalGridResultWitnessOutOfRange rejects a witness that fits the
// CRN's species count but not its tables — a reaction index outside the
// CRN's reactions or a negative start count — instead of handing back a
// trace whose String or Replay would index past them.
func TestUnmarshalGridResultWitnessOutOfRange(t *testing.T) {
	c := minCRN()
	witness := func(start []int64, reactions []int) []byte {
		w, err := json.Marshal(map[string]any{"start": start, "reactions": reactions})
		if err != nil {
			t.Fatal(err)
		}
		return []byte(`{"checked":1,"explored":2,"failure":{"input":[0,1],"want":0,` +
			`"verdict":{"ok":false,"err":"x","witness":` + string(w) + `,"explored":2}}}`)
	}
	ok := make([]int64, c.NumSpecies())
	if _, err := UnmarshalGridResult(witness(ok, []int{0}), c); err != nil {
		t.Fatalf("well-formed witness rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"reaction past the end": witness(ok, []int{0, len(c.Reactions)}),
		"negative reaction":     witness(ok, []int{-1}),
		"negative start count":  witness(append([]int64{-1}, ok[1:]...), []int{0}),
	} {
		if _, err := UnmarshalGridResult(data, c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
