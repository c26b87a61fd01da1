package atpg

import (
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Golden bytes: the on-disk checkpoint and cache-entry encodings, the
// identity hashes they embed and the cache key's rendering (the .rce
// file stem and the HTTP ETag) are pinned to literals. Any change to
// the framing, the checksum or the hash functions that moves a single
// byte fails here, so files written by an earlier build keep loading
// and clients' ETags keep matching.

// goldenOptions spells every result-affecting option out, so the pinned
// options hash depends on the hash function alone, not on defaults.
func goldenOptions() Options {
	return Options{
		MaxFrames:         4,
		MaxBacktracks:     30,
		MaxEvalsPerFault:  20_000,
		MaxEvalsTotal:     300_000_000,
		GuidedBacktrace:   true,
		FillValue:         logic.Zero,
		RandomPhase:       true,
		RandomLength:      8,
		RandomCount:       2,
		RandomSeed:        1,
		IdentifyRedundant: true,
	}
}

// goldenCheckpoint is a fixed Fig. 5 N1 checkpoint covering every
// decision-log shape: a detected fault with a multi-frame test holding
// all three logic values, an aborted and a redundant fault.
func goldenCheckpoint(t *testing.T) (*netlist.Circuit, []fault.Fault, *Checkpoint) {
	t.Helper()
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	if len(reps) < 3 {
		t.Fatalf("Fig5N1 collapses to %d faults", len(reps))
	}
	ck := newCheckpoint(c, reps, goldenOptions())
	ck.RandomDone = 2
	ck.Decided = []DecidedFault{
		{Fault: reps[0], Status: StatusDetected, Evals: 1234, Backtracks: 5, Seq: sim.Seq{
			{logic.One, logic.Zero, logic.X},
			{logic.Zero, logic.One, logic.One},
		}},
		{Fault: reps[1], Status: StatusAborted, Evals: 20_000, Backtracks: 30},
		{Fault: reps[2], Status: StatusRedundant, Evals: 77},
	}
	return c, reps, ck
}

const (
	goldenCircuitHash   uint64 = 0xe844f35ce856eef5
	goldenFaultsHash    uint64 = 0x5c65de98c117905d
	goldenOptionsHash   uint64 = 0xc4eb610e13a49dcc
	goldenParamsHash    uint64 = 0xed6a9dd5e0d65f72
	goldenKeyString            = "e844f35ce856eef5-5c65de98c117905d-c4eb610e13a49dcc"
	goldenCheckpointHex        = "41545047434b505401000000f5ee56e85cf344e85d9017c198de655ccc9da4130e61ebc410020300010001d209050203210500010100a09c011e010100024d009875b06f9ae9e5c5"
	goldenEntryHex             = "524553434143484501000000f5ee56e85cf344e85d9017c198de655ccc9da4130e61ebc40e676f6c64656e207061796c6f616443637fe8b93ac3ee"
)

func TestGoldenCacheKey(t *testing.T) {
	c, reps, _ := goldenCheckpoint(t)
	k := CacheKey(c, reps, goldenOptions())
	if k.Circuit != goldenCircuitHash || k.Faults != goldenFaultsHash || k.Options != goldenOptionsHash {
		t.Fatalf("CacheKey = %#x, %#x, %#x; want %#x, %#x, %#x",
			k.Circuit, k.Faults, k.Options, goldenCircuitHash, goldenFaultsHash, goldenOptionsHash)
	}
	if got := resultcache.ParamsHash("derive_tests", "period", "0"); got != goldenParamsHash {
		t.Fatalf("ParamsHash = %#x, want %#x", got, goldenParamsHash)
	}
}

func TestGoldenCheckpointBytes(t *testing.T) {
	_, _, ck := goldenCheckpoint(t)
	if got := hex.EncodeToString(ck.Encode()); got != goldenCheckpointHex {
		t.Fatalf("checkpoint encoding moved:\n got %s\nwant %s", got, goldenCheckpointHex)
	}
	data, _ := hex.DecodeString(goldenCheckpointHex)
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v", err)
	}
	if hex.EncodeToString(back.Encode()) != goldenCheckpointHex {
		t.Fatal("golden checkpoint does not round-trip")
	}
}

func TestGoldenCacheEntryBytes(t *testing.T) {
	c, reps, _ := goldenCheckpoint(t)
	key := CacheKey(c, reps, goldenOptions())
	if got := key.String(); got != goldenKeyString {
		t.Fatalf("Key.String() = %s, want %s", got, goldenKeyString)
	}
	e := resultcache.Entry{Key: key, Payload: []byte("golden payload")}
	if got := hex.EncodeToString(e.Encode()); got != goldenEntryHex {
		t.Fatalf("cache entry encoding moved:\n got %s\nwant %s", got, goldenEntryHex)
	}
	data, _ := hex.DecodeString(goldenEntryHex)
	back, err := resultcache.DecodeEntry(data)
	if err != nil {
		t.Fatalf("golden cache entry no longer decodes: %v", err)
	}
	if back.Key != key || string(back.Payload) != "golden payload" {
		t.Fatalf("golden cache entry decoded to %+v", back)
	}
}
