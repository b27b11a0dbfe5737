package reach

import (
	"encoding/json"
	"errors"
	"fmt"

	"crncompose/internal/crn"
)

// JSON wire form of verification results. This is the single machine-readable
// encoding of GridResult/GridFailure/Verdict: crncheck -json emits it and the
// distributed checker (internal/dist) ships it between workers and the
// coordinator. Marshaling is the plain encoding/json of the structs (Verdict
// implements MarshalJSON because error values and witness configurations have
// no default encoding); unmarshaling goes through UnmarshalGridResult, which
// needs the CRN to rebind witness configurations to their species table.
//
// Round-trip guarantees: counts, inputs, the failure verdict, and the witness
// schedule survive exactly — re-marshaling a decoded result yields the same
// bytes. Verdict.Err survives as its message only (the decoded value is a
// plain error with the original text).

// verdictJSON is the wire form of Verdict.
type verdictJSON struct {
	OK           bool         `json:"ok"`
	Inconclusive bool         `json:"inconclusive,omitempty"`
	Err          string       `json:"err,omitempty"`
	Witness      *witnessJSON `json:"witness,omitempty"`
	Explored     int          `json:"explored"`
}

// witnessJSON is the wire form of a crn.Trace: the dense count row of the
// starting configuration (indexed by the CRN's species table) plus the fired
// reaction indices.
type witnessJSON struct {
	Start     []int64 `json:"start"`
	Reactions []int   `json:"reactions"`
}

// MarshalGridResultIndent renders res in the canonical presentation form of
// the wire encoding: two-space-indented JSON with a trailing newline. This is
// the exact byte sequence crncheck -json writes and the serve layer's
// /v1/check responds with — the cross-process byte-identity contracts (CLI vs
// server vs distributed merge) are pinned on this one encoder, so every
// consumer of "the JSON result" must go through it rather than re-marshal.
func MarshalGridResultIndent(res GridResult) ([]byte, error) {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// MarshalJSON encodes the verdict in the wire form shared by crncheck -json
// and the distributed checker.
func (v Verdict) MarshalJSON() ([]byte, error) {
	w := verdictJSON{OK: v.OK, Inconclusive: v.Inconclusive, Explored: v.Explored}
	if v.Err != nil {
		w.Err = v.Err.Error()
	}
	if v.Witness != nil {
		w.Witness = &witnessJSON{
			Start:     v.Witness.Start.CountsRef(),
			Reactions: v.Witness.Reactions,
		}
	}
	return json.Marshal(w)
}

// UnmarshalGridResult decodes the JSON wire form of a GridResult produced by
// json.Marshal, rebinding any witness configuration to c (which must be the
// CRN the result was computed for; a witness must fit c's species and
// reactions, with nonnegative counts). Verdict.Err comes back as a plain
// error carrying the original message.
func UnmarshalGridResult(data []byte, c *crn.CRN) (GridResult, error) {
	var w struct {
		Checked      int `json:"checked"`
		Inconclusive int `json:"inconclusive"`
		Explored     int `json:"explored"`
		Failure      *struct {
			Input   []int64     `json:"input"`
			Want    int64       `json:"want"`
			Verdict verdictJSON `json:"verdict"`
		} `json:"failure"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return GridResult{}, fmt.Errorf("reach: decoding grid result: %w", err)
	}
	res := GridResult{Checked: w.Checked, Inconclusive: w.Inconclusive, Explored: w.Explored}
	if w.Failure != nil {
		v, err := decodeVerdict(w.Failure.Verdict, c)
		if err != nil {
			return GridResult{}, err
		}
		res.Failure = &GridFailure{Input: w.Failure.Input, Want: w.Failure.Want, Verdict: v}
	}
	return res, nil
}

func decodeVerdict(w verdictJSON, c *crn.CRN) (Verdict, error) {
	v := Verdict{OK: w.OK, Inconclusive: w.Inconclusive, Explored: w.Explored}
	if w.Err != "" {
		v.Err = errors.New(w.Err)
	}
	if w.Witness != nil {
		if len(w.Witness.Start) != c.NumSpecies() {
			return Verdict{}, fmt.Errorf("reach: witness start has %d counts, CRN has %d species",
				len(w.Witness.Start), c.NumSpecies())
		}
		for i, n := range w.Witness.Start {
			if n < 0 {
				return Verdict{}, fmt.Errorf("reach: witness start count %d of species %d is negative", n, i)
			}
		}
		for step, ri := range w.Witness.Reactions {
			if ri < 0 || ri >= len(c.Reactions) {
				return Verdict{}, fmt.Errorf("reach: witness step %d fires reaction %d of %d", step, ri, len(c.Reactions))
			}
		}
		v.Witness = &crn.Trace{
			Start:     c.DenseConfig(w.Witness.Start),
			Reactions: w.Witness.Reactions,
		}
	}
	return v, nil
}
