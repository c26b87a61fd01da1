package dispatch

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// FuzzShardWireDecode hardens the shard-submission decoder -- the only
// path from untrusted network bytes into a worker's ATPG engine --
// mirroring FuzzCheckpointRestore. Arbitrary bytes must produce a
// clean rejection or a fully validated shardWork: in-range fault
// sites, a known stuck-at polarity on every fault, and a resume
// checkpoint that passes identity validation. An accepted request must
// also survive a wire round trip (rebuild the request from the decoded
// work, re-decode, and compare engine identity hashes), so the decoder
// can never accept something the dispatcher could not have sent.
func FuzzShardWireDecode(f *testing.F) {
	// Seed real submissions for both paper circuits: fresh shards,
	// shards with a genuine mid-run resume checkpoint, plus truncated /
	// bit-rotted / garbage-appended variants of each.
	for _, c := range []*netlist.Circuit{netlist.Fig2C1(), netlist.Fig5N1()} {
		reps, _ := fault.Collapse(c)
		opt := atpg.Options{MaxFrames: 4, MaxBacktracks: 50}
		req := shardRequest{
			Name:  c.Name,
			Bench: netlist.BenchString(c),
			Fault: toFaultWire(reps),
			Opt:   toOptionsWire(opt),
		}
		seed, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)

		// A genuine partial checkpoint as the resume payload.
		half := reps[:len(reps)/2]
		runOpt := opt
		runOpt.Workers = 0
		decided, err := atpg.GenerateShard(context.Background(), c, half, runOpt)
		if err != nil {
			f.Fatal(err)
		}
		ck := atpg.ShardCheckpoint(c, half, runOpt, decided)
		resumeReq := req
		resumeReq.Fault = toFaultWire(half)
		resumeReq.Resume = ck.Encode()
		resumeReq.CheckpointEvery = 1
		resumeReq.DeadlineMS = 30000
		seed2, err := json.Marshal(resumeReq)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed2)

		for _, s := range [][]byte{seed, seed2} {
			f.Add(s[:len(s)/2])   // truncation
			f.Add(append(s, '}')) // trailing garbage
			mut := append([]byte(nil), s...)
			mut[len(mut)/3] ^= 0x40 // bit rot
			f.Add(mut)
		}
	}
	// Pinned regressions: shapes that historically slip past naive
	// decoders -- empty object (no circuit), valid JSON with hostile
	// fault coordinates, wrong-type fields, null, bare junk.
	f.Add([]byte(nil))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":"x","bench":"","faults":[]}`))
	f.Add([]byte(`{"name":"c","bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","faults":[{"node":99,"pin":-1,"sa":0}]}`))
	f.Add([]byte(`{"name":"c","bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","faults":[{"node":0,"pin":7,"sa":1}]}`))
	f.Add([]byte(`{"name":"c","bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","faults":[{"node":0,"pin":-1,"sa":9}]}`))
	f.Add([]byte(`{"name":"c","bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","faults":[{"node":-1,"pin":-1,"sa":0}]}`))
	f.Add([]byte(`{"faults":"not-an-array"}`))
	f.Add([]byte(`{"resume":"!!!not-base64!!!"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		work, err := decodeShardRequest(data)
		if err != nil {
			return // clean rejection is the expected outcome for junk
		}
		// Accepted: every invariant the worker's run loop relies on
		// must hold.
		if work.c == nil || len(work.faults) == 0 {
			t.Fatalf("accepted shard with no circuit or no faults: %+v", work)
		}
		for i, flt := range work.faults {
			if flt.Node < 0 || flt.Node >= len(work.c.Nodes) {
				t.Fatalf("accepted out-of-range node %d (circuit has %d)", flt.Node, len(work.c.Nodes))
			}
			if flt.Pin != fault.StemPin && (flt.Pin < 0 || flt.Pin >= len(work.c.Nodes[flt.Node].Fanin)) {
				t.Fatalf("accepted out-of-range pin %d on node %d", flt.Pin, flt.Node)
			}
			if !flt.SA.Known() {
				t.Fatalf("accepted fault %d with unknown stuck-at %d", i, flt.SA)
			}
		}
		if work.resume != nil {
			opt := work.opt
			opt.Workers = 0
			opt.Checkpoint = atpg.CheckpointConfig{}
			if err := work.resume.Validate(work.c, work.faults, opt); err != nil {
				t.Fatalf("accepted resume checkpoint fails validation: %v", err)
			}
		}
		// Round trip: rebuild the request the way HTTPBackend.Run does
		// and re-decode; the engine identity must be unchanged.
		rebuilt := shardRequest{
			Name:            work.c.Name,
			Bench:           netlist.BenchString(work.c),
			Fault:           toFaultWire(work.faults),
			Opt:             toOptionsWire(work.opt),
			CheckpointEvery: work.every,
			DeadlineMS:      work.deadlineMS,
		}
		if work.resume != nil {
			rebuilt.Resume = work.resume.Encode()
		}
		enc, err := json.Marshal(rebuilt)
		if err != nil {
			t.Fatalf("re-marshal of accepted request failed: %v", err)
		}
		work2, err := decodeShardRequest(enc)
		if err != nil {
			t.Fatalf("re-decode of rebuilt request failed: %v\n%s", err, enc)
		}
		k1 := atpg.CacheKey(work.c, work.faults, work.opt)
		k2 := atpg.CacheKey(work2.c, work2.faults, work2.opt)
		if k1 != k2 {
			t.Fatalf("wire round trip changed engine identity: %v -> %v", k1, k2)
		}
		if work2.resumeLen() != work.resumeLen() {
			t.Fatalf("wire round trip changed resume length: %d -> %d", work.resumeLen(), work2.resumeLen())
		}
	})
}
