package atpg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/netlist"
	"repro/internal/resultcache"
)

// TestCacheKeyIdentity: the key's slots are the checkpoint identity
// hashes, so a cached result and a checkpoint name the same run.
func TestCacheKeyIdentity(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	k := CacheKey(c, reps, opt)
	if want := (resultcache.Key{Circuit: hashCircuit(c), Faults: hashFaults(reps), Options: OptionsHash(opt)}); k != want {
		t.Fatalf("CacheKey %v, want the checkpoint identity hashes %v", k, want)
	}

	// Result-neutral knobs must not move the key; result-affecting ones must.
	neutral := opt
	neutral.Workers = 8
	neutral.Checkpoint = CheckpointConfig{Path: "x", Every: 1}
	if CacheKey(c, reps, neutral) != k {
		t.Fatal("Workers/Checkpoint changed the cache key")
	}
	affecting := opt
	affecting.RandomSeed++
	if CacheKey(c, reps, affecting) == k {
		t.Fatal("RandomSeed change did not move the cache key")
	}
	if CacheKey(c, reps[:len(reps)-1], opt) == k {
		t.Fatal("fault list change did not move the cache key")
	}
	if CacheKey(netlist.Fig5N2(), reps, opt) == k {
		t.Fatal("circuit change did not move the cache key")
	}
}

// normalized strips the fields the payload deliberately excludes --
// wall clock and scheduling bookkeeping -- so decoded results compare
// deep-equal to live ones.
func normalized(res *Result) *Result {
	cp := *res
	cp.Effort.Time = 0
	cp.Parallel = nil
	if cp.Status == nil {
		cp.Status = map[fault.Fault]FaultStatus{}
	}
	return &cp
}

func TestResultPayloadRoundTrip(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	res := Run(c, reps, checkpointOptions())

	payload := EncodeResultPayload(res)
	got, err := DecodeResultPayload(payload, c, reps)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, normalized(res)) {
		t.Fatalf("decoded result differs from original:\n got  %+v\n want %+v", got, normalized(res))
	}
	if !bytes.Equal(EncodeResultPayload(got), payload) {
		t.Fatal("decode+encode is not byte-identical")
	}
}

func TestResultPayloadRejectsCorruption(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	res := Run(c, reps, checkpointOptions())
	payload := EncodeResultPayload(res)

	for n := 0; n < len(payload); n += 1 + n/8 {
		if _, err := DecodeResultPayload(payload[:n], c, reps); !errors.Is(err, ErrResultPayload) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrResultPayload", n, err)
		}
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x55
		got, err := DecodeResultPayload(mut, c, reps)
		// The payload frame's checksum rejects flips; whatever does
		// decode must still never be a misencoding.
		if err == nil && !bytes.Equal(EncodeResultPayload(got), mut) {
			t.Fatalf("bit flip at %d: accepted input does not round-trip", i)
		}
		if err != nil && !errors.Is(err, ErrResultPayload) {
			t.Fatalf("bit flip at %d: unclassified error %v", i, err)
		}
	}
	if _, err := DecodeResultPayload(append([]byte(nil), payload[:0]...), c, reps); !errors.Is(err, ErrResultPayload) {
		t.Fatal("empty payload accepted")
	}
	if _, err := DecodeResultPayload(append(payload, 0), c, reps); !errors.Is(err, ErrResultPayload) {
		t.Fatal("trailing byte accepted")
	}
}

// TestResultPayloadRejectsVersion1: a payload in the unframed version-1
// layout (magic, version, body, no checksum trailer) that an older build
// cached fails to decode, so CachedRun deletes it and recomputes.
func TestResultPayloadRejectsVersion1(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	res := Run(c, reps, checkpointOptions())
	_, body, err := frame.Open(EncodeResultPayload(res), resultMagic)
	if err != nil {
		t.Fatal(err)
	}
	v1 := binary.LittleEndian.AppendUint32([]byte(resultMagic), 1)
	v1 = append(v1, body...)
	if _, err := DecodeResultPayload(v1, c, reps); !errors.Is(err, ErrResultPayload) {
		t.Fatalf("version-1 payload: got %v, want ErrResultPayload", err)
	}

	cache := resultcache.New(resultcache.Config{})
	key := CacheKey(c, reps, checkpointOptions())
	cache.Put(key, v1)
	got, src, err := CachedRun(context.Background(), cache, c, reps, checkpointOptions())
	if err != nil || src != resultcache.SourceNone {
		t.Fatalf("version-1 hit: src=%v err=%v, want a recompute", src, err)
	}
	if !bytes.Equal(EncodeResultPayload(got), EncodeResultPayload(res)) {
		t.Fatal("recomputed result differs from the direct run")
	}
}

func TestResultPayloadRejectsForeignRun(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	res := Run(c, reps, checkpointOptions())
	payload := EncodeResultPayload(res)

	if _, err := DecodeResultPayload(payload, c, reps[:len(reps)-1]); !errors.Is(err, ErrResultPayload) {
		t.Fatalf("shorter fault list: got %v, want ErrResultPayload", err)
	}
	c2 := netlist.Fig2C1() // different input count: packed vectors cannot fit
	reps2, _ := fault.Collapse(c2)
	if len(c2.Inputs) == len(c.Inputs) {
		t.Fatal("fixture circuits share an input count; pick different ones")
	}
	if len(reps2) == len(reps) {
		payload2 := payload
		if _, err := DecodeResultPayload(payload2, c2, reps2); !errors.Is(err, ErrResultPayload) {
			t.Fatalf("foreign circuit: got %v, want ErrResultPayload", err)
		}
	}
}

func TestCachedRun(t *testing.T) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	cache := resultcache.New(resultcache.Config{Dir: t.TempDir()})
	ctx := context.Background()

	cold, src, err := CachedRun(ctx, cache, c, reps, opt)
	if err != nil || src != resultcache.SourceNone {
		t.Fatalf("cold run: src=%v err=%v", src, err)
	}
	hit, src, err := CachedRun(ctx, cache, c, reps, opt)
	if err != nil || src != resultcache.SourceMemory {
		t.Fatalf("warm run: src=%v err=%v", src, err)
	}
	if !reflect.DeepEqual(hit, normalized(cold)) {
		t.Fatal("cache hit differs from the cold run")
	}
	if !bytes.Equal(EncodeResultPayload(hit), EncodeResultPayload(cold)) {
		t.Fatal("cache hit is not byte-identical to the cold run")
	}

	// A payload that stopped decoding (e.g. a version skew survived the
	// entry checksum) is deleted and recomputed, never returned. Insert
	// is refresh-only on a live key (content-addressed: same key, same
	// payload), so clear it first to plant the bad bytes.
	key := CacheKey(c, reps, opt)
	cache.Delete(key)
	cache.Put(key, []byte("not a result payload"))
	re, src, err := CachedRun(ctx, cache, c, reps, opt)
	if err != nil || src != resultcache.SourceNone {
		t.Fatalf("recompute after bad payload: src=%v err=%v", src, err)
	}
	if !bytes.Equal(EncodeResultPayload(re), EncodeResultPayload(cold)) {
		t.Fatal("recomputed result differs from the cold run")
	}
	if _, src, _ := CachedRun(ctx, cache, c, reps, opt); src != resultcache.SourceMemory {
		t.Fatalf("recompute did not restore the cache: src=%v", src)
	}

	// Nil cache degrades to plain RunContext.
	plain, src, err := CachedRun(ctx, nil, c, reps, opt)
	if err != nil || src != resultcache.SourceNone || plain == nil {
		t.Fatalf("nil cache: src=%v err=%v", src, err)
	}
}

// BenchmarkATPGColdRun / BenchmarkATPGCacheHit are the before/after
// pair recorded in BENCH_atpg.json: the full generator versus a
// content-addressed hit decoding the stored payload.
func BenchmarkATPGColdRun(b *testing.B) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(c, reps, opt)
	}
}

func BenchmarkATPGCacheHit(b *testing.B) {
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	cache := resultcache.New(resultcache.Config{})
	ctx := context.Background()
	if _, _, err := CachedRun(ctx, cache, c, reps, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, src, err := CachedRun(ctx, cache, c, reps, opt); err != nil || src != resultcache.SourceMemory {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}
