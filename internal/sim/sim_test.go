package sim

import (
	"testing"

	"repro/internal/logic"
)

func TestParseHelpers(t *testing.T) {
	v := ParseVec("01x")
	if v[0] != logic.Zero || v[1] != logic.One || v[2] != logic.X {
		t.Fatalf("ParseVec = %v", v)
	}
	// One value per rune: a multibyte rune is one (unknown) value, not
	// one per byte.
	if got := VecString(ParseVec("é1")); got != "x1" {
		t.Fatalf(`ParseVec("é1") = %q, want "x1"`, got)
	}
	if VecString(v) != "01x" {
		t.Fatalf("VecString = %q", VecString(v))
	}
	seq := ParseSeq("001,000")
	if len(seq) != 2 || VecString(seq[1]) != "000" {
		t.Fatalf("ParseSeq = %v", seq)
	}
	if SeqString(seq) != "001,000" {
		t.Fatalf("SeqString = %q", SeqString(seq))
	}
	if got := ParseSeq("11 01"); len(got) != 2 {
		t.Fatalf("space-separated ParseSeq = %v", got)
	}
	if !AllKnown(ParseVec("0101")) || AllKnown(ParseVec("01x1")) {
		t.Fatal("AllKnown wrong")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for w := uint64(0); w < 32; w++ {
		if PackVec(UnpackVec(w, 5)) != w {
			t.Fatalf("round trip failed for %d", w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PackVec should panic on x")
		}
	}()
	PackVec(ParseVec("x"))
}
