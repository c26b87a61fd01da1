package fsmgen

import (
	"math/rand"
	"repro/internal/fsim"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

const tinyKiss = `
# a tiny traffic-light machine
.i 2
.o 1
.s 3
.r red
00 red red 0
-1 red green 0
10 red red 0
-- green yellow 1
-- yellow red 0
.e
`

func TestParseKISS2(t *testing.T) {
	f, err := ParseKISS2String("tiny", tinyKiss)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumInputs != 2 || f.NumOutputs != 1 || len(f.States) != 3 || f.Reset != "red" {
		t.Fatalf("parsed %+v", f)
	}
	if len(f.Trans) != 5 {
		t.Fatalf("trans = %d", len(f.Trans))
	}
	if err := f.Validate(true); err != nil {
		t.Fatalf("tiny machine should be complete: %v", err)
	}
}

func TestKISS2RoundTrip(t *testing.T) {
	f, err := ParseKISS2String("tiny", tinyKiss)
	if err != nil {
		t.Fatal(err)
	}
	text := KISS2String(f)
	f2, err := ParseKISS2String("tiny", text)
	if err != nil {
		t.Fatal(err)
	}
	if KISS2String(f2) != text {
		t.Fatal("round trip mismatch")
	}
}

func TestParseKISS2Errors(t *testing.T) {
	cases := []string{
		".i x\n",
		".q 3\n",
		"01 a b\n",        // 3 fields
		".i 2\n0 a b 1\n", // cube width
		".i 1\n.o 1\n0 a b 11\n",
		".i 1\n.o 1\n0 a b 2\n",
	}
	for _, src := range cases {
		if _, err := ParseKISS2String("bad", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestValidateOverlap(t *testing.T) {
	f := &FSM{Name: "o", NumInputs: 2, NumOutputs: 1,
		States: []string{"a"},
		Trans: []Trans{
			{In: "1-", From: "a", To: "a", Out: "0"},
			{In: "11", From: "a", To: "a", Out: "1"},
		}}
	if err := f.Validate(false); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestGenerateComplete(t *testing.T) {
	f := Generate(GenParams{Name: "g", Inputs: 5, Outputs: 4, States: 12,
		DecisionVars: 2, OutputDensity: 0.3, Seed: 7})
	if err := f.Validate(true); err != nil {
		t.Fatal(err)
	}
	if len(f.States) != 12 || len(f.Trans) != 12*4 {
		t.Fatalf("sizes: %d states %d trans", len(f.States), len(f.Trans))
	}
	// Strong connectivity along the ring: every state reachable from st0.
	reach := map[string]bool{"st0": true}
	frontier := []string{"st0"}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, tr := range f.Trans {
			if tr.From == s && !reach[tr.To] {
				reach[tr.To] = true
				frontier = append(frontier, tr.To)
			}
		}
	}
	if len(reach) != 12 {
		t.Fatalf("only %d states reachable", len(reach))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Name: "g", Inputs: 4, Outputs: 3, States: 9, DecisionVars: 2, OutputDensity: 0.3, Seed: 11}
	if KISS2String(Generate(p)) != KISS2String(Generate(p)) {
		t.Fatal("Generate is not deterministic")
	}
}

// TestBenchmarksMatchTableI: the six machines must have exactly the
// paper's PI/PO/state counts once synthesized (PI includes the reset
// line where the paper used one).
func TestBenchmarksMatchTableI(t *testing.T) {
	want := map[string][3]int{
		"dk16": {3, 3, 27},
		"pma":  {9, 8, 24},
		"s510": {20, 7, 47},
		"s820": {18, 19, 25},
		"s832": {18, 19, 25},
		"scf":  {27, 54, 121},
	}
	for name, w := range want {
		f, spec, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.States) != w[2] {
			t.Errorf("%s: %d states, want %d", name, len(f.States), w[2])
		}
		if f.NumOutputs != w[1] {
			t.Errorf("%s: %d outputs, want %d", name, f.NumOutputs, w[1])
		}
		c, err := Synthesize(f, SynthOptions{Encoding: EncInput, Script: ScriptDelay, Reset: spec.Reset})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(c.Inputs); got != w[0] {
			t.Errorf("%s: synthesized PI = %d, want %d", name, got, w[0])
		}
		if got := len(c.Outputs); got != w[1] {
			t.Errorf("%s: synthesized PO = %d, want %d", name, got, w[1])
		}
		if got, wantBits := len(c.DFFs), CodeBits(w[2]); got != wantBits {
			t.Errorf("%s: %d DFFs, want %d", name, got, wantBits)
		}
		if err := f.Validate(true); err != nil {
			t.Errorf("%s: not completely specified: %v", name, err)
		}
	}
}

func TestEncodersDiffer(t *testing.T) {
	f, _, err := Benchmark("dk16")
	if err != nil {
		t.Fatal(err)
	}
	ci := EncodeStates(f, EncInput)
	co := EncodeStates(f, EncOutput)
	cc := EncodeStates(f, EncCombined)
	for _, codes := range []map[string]uint64{ci, co, cc} {
		seen := map[uint64]bool{}
		for _, c := range codes {
			if seen[c] {
				t.Fatal("duplicate code")
			}
			seen[c] = true
			if c >= uint64(len(f.States)) {
				t.Fatal("code out of range")
			}
		}
	}
	same := func(a, b map[string]uint64) bool {
		for s := range a {
			if a[s] != b[s] {
				return false
			}
		}
		return true
	}
	if same(ci, co) || same(ci, cc) || same(co, cc) {
		t.Fatal("encoders produced identical assignments")
	}
}

// TestSynthesizedMatchesFSM co-simulates the synthesized netlist against
// the KISS2 interpreter on random walks, for every encoder and script.
func TestSynthesizedMatchesFSM(t *testing.T) {
	f := Generate(GenParams{Name: "g", Inputs: 4, Outputs: 3, States: 10,
		DecisionVars: 2, OutputDensity: 0.4, Seed: 5})
	rng := rand.New(rand.NewSource(6))
	for _, enc := range []Encoding{EncInput, EncOutput, EncCombined} {
		for _, scr := range []Script{ScriptDelay, ScriptRugged} {
			for _, useReset := range []bool{false, true} {
				opt := SynthOptions{Encoding: enc, Script: scr, Reset: useReset}
				c, err := Synthesize(f, opt)
				if err != nil {
					t.Fatalf("%s: %v", VariantName("g", opt), err)
				}
				coSim(t, f, c, opt, rng)
			}
		}
	}
}

func coSim(t *testing.T, f *FSM, c *netlist.Circuit, opt SynthOptions, rng *rand.Rand) {
	t.Helper()
	codes := EncodeStates(f, opt.Encoding)
	bits := CodeBits(len(f.States))
	s := fsim.NewMachine(c, nil)
	state := f.States[rng.Intn(len(f.States))]
	s.SetState(sim.UnpackVec(codes[state], bits))
	for step := 0; step < 30; step++ {
		inBits := make([]byte, f.NumInputs)
		for i := range inBits {
			inBits[i] = byte('0' + rng.Intn(2))
		}
		vec := make(sim.Vec, 0, len(c.Inputs))
		if opt.Reset {
			vec = append(vec, 0) // rst = 0: normal operation
		}
		vec = append(vec, sim.ParseVec(string(inBits))...)
		out := s.Step(vec)
		next, wantOut, ok := f.Step(state, string(inBits))
		if !ok {
			t.Fatalf("FSM incomplete at state %s input %s", state, inBits)
		}
		if got := sim.VecString(out); got != wantOut {
			t.Fatalf("%s: output %s, FSM says %s (state %s, in %s)", c.Name, got, wantOut, state, inBits)
		}
		if got := sim.PackVec(s.State()); got != codes[next] {
			t.Fatalf("%s: next state %d, FSM says %s=%d", c.Name, got, next, codes[next])
		}
		state = next
	}
	if opt.Reset {
		// Asserting rst must force the reset state's code from anywhere.
		vec := make(sim.Vec, len(c.Inputs))
		vec[0] = 1
		for i := 1; i < len(vec); i++ {
			vec[i] = sim.ParseVec("1")[0]
		}
		s.Step(vec)
		if got := sim.PackVec(s.State()); got != codes[f.Reset] {
			t.Fatalf("%s: reset drove state to %d, want %d", c.Name, got, codes[f.Reset])
		}
	}
}

func TestScriptsDiffer(t *testing.T) {
	f, spec, err := Benchmark("s820")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Synthesize(f, SynthOptions{Encoding: EncInput, Script: ScriptDelay, Reset: spec.Reset})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Synthesize(f, SynthOptions{Encoding: EncInput, Script: ScriptRugged, Reset: spec.Reset})
	if err != nil {
		t.Fatal(err)
	}
	dsd, dsr := sd.MaxCombDelay(), sr.MaxCombDelay()
	if dsd >= dsr {
		t.Fatalf("balanced trees should be shallower: sd=%d sr=%d", dsd, dsr)
	}
}

func TestVariantNameAndParsers(t *testing.T) {
	opt := SynthOptions{Encoding: EncCombined, Script: ScriptRugged}
	if got := VariantName("s510", opt); got != "s510.jc.sr" {
		t.Fatalf("VariantName = %q", got)
	}
	for _, s := range []string{"ji", "jo", "jc"} {
		e, ok := ParseEncoding(s)
		if !ok || e.String() != s {
			t.Fatalf("ParseEncoding(%q) broken", s)
		}
	}
	if _, ok := ParseEncoding("zz"); ok {
		t.Fatal("ParseEncoding accepted garbage")
	}
	for _, s := range []string{"sd", "sr"} {
		sc, ok := ParseScript(s)
		if !ok || sc.String() != s {
			t.Fatalf("ParseScript(%q) broken", s)
		}
	}
	if _, ok := ParseScript("zz"); ok {
		t.Fatal("ParseScript accepted garbage")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	f, spec, err := Benchmark("pma")
	if err != nil {
		t.Fatal(err)
	}
	opt := SynthOptions{Encoding: EncOutput, Script: ScriptDelay, Reset: spec.Reset}
	a, err := Synthesize(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if netlist.BenchString(a) != netlist.BenchString(b) {
		t.Fatal("Synthesize is not deterministic")
	}
}

func TestFSMStep(t *testing.T) {
	f, err := ParseKISS2String("tiny", tinyKiss)
	if err != nil {
		t.Fatal(err)
	}
	next, out, ok := f.Step("red", "01")
	if !ok || next != "green" || out != "0" {
		t.Fatalf("Step = %s %s %v", next, out, ok)
	}
	next, out, ok = f.Step("green", "00")
	if !ok || next != "yellow" || out != "1" {
		t.Fatalf("Step = %s %s %v", next, out, ok)
	}
	if _, _, ok := f.Step("nosuch", "00"); ok {
		t.Fatal("Step on unknown state should fail")
	}
}
