// Package sim holds the vector vocabulary shared by every simulator in
// the repository -- Vec, Seq, their literal parsers and printers, and
// the uint64 packing helpers -- plus BinarySim, an exhaustive
// binary-domain simulator kept as the test oracle for the soundness of
// the 3-valued abstraction.
//
// The scalar 3-valued simulator itself (unknown initial state, the
// model that defines the paper's "structural-based" synchronizing
// sequences and tests) is fsim.Machine with a nil fault; state
// transition graph extraction (package stg) runs on it too.
package sim

import (
	"strings"

	"repro/internal/logic"
)

// Vec is one input (or output) vector, indexed like Circuit.Inputs
// (respectively Circuit.Outputs).
type Vec = []logic.V

// Seq is a sequence of vectors applied on consecutive clock cycles.
type Seq = []Vec

// ParseVec parses a vector literal such as "01x", one value per rune.
func ParseVec(s string) Vec {
	v := make(Vec, 0, len(s))
	for _, r := range s {
		v = append(v, logic.FromRune(r))
	}
	return v
}

// ParseSeq parses a comma- or space-separated list of vector literals,
// e.g. "001,000" or "11 01".
func ParseSeq(s string) Seq {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	seq := make(Seq, 0, len(fields))
	for _, f := range fields {
		if f != "" {
			seq = append(seq, ParseVec(f))
		}
	}
	return seq
}

// VecString renders a vector as a compact literal.
func VecString(v Vec) string {
	var sb strings.Builder
	for _, x := range v {
		sb.WriteString(x.String())
	}
	return sb.String()
}

// SeqString renders a sequence as comma-separated vector literals.
func SeqString(s Seq) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = VecString(v)
	}
	return strings.Join(parts, ",")
}

// AllKnown reports whether every value in the vector is binary.
func AllKnown(v Vec) bool {
	for _, x := range v {
		if !x.Known() {
			return false
		}
	}
	return true
}
