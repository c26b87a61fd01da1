package atpg

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Result-cache integration. A Result is a pure function of the
// (circuit, fault list, result-affecting options) triple, so the same
// identity hashes that bind a checkpoint to one run (see checkpoint.go)
// also name its finished result in a content-addressed cache. This file
// exports those hashes as a resultcache.Key and defines the canonical
// result payload stored under it.

// ResultPayloadVersion is the cached-result payload format version this
// build reads and writes. Version 2 sealed the payload in a checksummed
// frame; a version-1 payload fails to decode, so CachedRun deletes it
// and recomputes.
const ResultPayloadVersion = 2

// resultMagic leads every encoded result payload.
const resultMagic = "ATPGRSLT"

// ErrResultPayload is wrapped by every DecodeResultPayload failure. The
// cache layers treat it like any other corruption: discard the entry
// and recompute.
var ErrResultPayload = errors.New("atpg: corrupt or mismatched cached result payload")

// CacheKey names this run's result in a resultcache.Cache: the
// canonical (circuit, fault list, options) fingerprints a checkpoint
// binds to. Workers and the Checkpoint config do not contribute: both
// are result-neutral.
func CacheKey(c *netlist.Circuit, faults []fault.Fault, opt Options) resultcache.Key {
	return resultcache.Key{Circuit: hashCircuit(c), Faults: hashFaults(faults), Options: OptionsHash(opt)}
}

// EncodeResultPayload serializes the run-independent portion of a
// Result into its canonical checksummed frame: per-fault statuses in
// fault list order, the test sequences 2-bit packed, and the
// deterministic effort and fault-simulation counters. Effort.Time (wall clock) and
// Parallel (scheduling bookkeeping) are deliberately excluded -- they
// vary between identical runs, and a cache hit reports zero time and a
// nil Parallel, exactly like an instantaneous single-threaded run.
func EncodeResultPayload(res *Result) []byte {
	buf := make([]byte, 0, 64+8*len(res.Faults))
	buf = binary.AppendUvarint(buf, uint64(len(res.Faults)))
	for _, f := range res.Faults {
		st, ok := res.Status[f]
		if !ok {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1+byte(st))
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Tests)))
	for _, seq := range res.Tests {
		width := 0
		if len(seq) > 0 {
			width = len(seq[0])
		}
		buf = binary.AppendUvarint(buf, uint64(len(seq)))
		buf = binary.AppendUvarint(buf, uint64(width))
		buf = appendPackedSeq(buf, seq)
	}
	buf = binary.AppendUvarint(buf, uint64(res.Effort.Evals))
	buf = binary.AppendUvarint(buf, uint64(res.Effort.Backtracks))
	buf = binary.AppendUvarint(buf, uint64(res.FsimStats.Cycles))
	buf = binary.AppendUvarint(buf, uint64(res.FsimStats.Evals))
	buf = binary.AppendUvarint(buf, uint64(res.FsimStats.Drops))
	buf = binary.AppendUvarint(buf, uint64(res.FsimStats.Repacks))
	return frame.Seal(resultMagic, ResultPayloadVersion, buf)
}

// DecodeResultPayload parses an encoded payload back into a Result
// bound to the caller's circuit and fault list (which the cache key
// already proved identical to the producer's). It never panics on
// arbitrary input; every failure -- truncation, bad magic, checksum
// mismatch, unknown version, a fault count that disagrees with the
// caller's list, non-canonical varints, trailing bytes -- wraps
// ErrResultPayload.
// The decoded Result has Effort.Time zero and Parallel nil.
func DecodeResultPayload(data []byte, c *netlist.Circuit, faults []fault.Fault) (*Result, error) {
	v, body, err := frame.Open(data, resultMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrResultPayload, err)
	}
	if v != ResultPayloadVersion {
		return nil, fmt.Errorf("%w: payload has version %d, this build reads %d",
			ErrResultPayload, v, ResultPayloadVersion)
	}
	r := frame.NewReader(body)
	n := int(r.Uvarint(1 << 31))
	if r.OK() && n != len(faults) {
		return nil, fmt.Errorf("%w: payload covers %d faults, run targets %d",
			ErrResultPayload, n, len(faults))
	}
	res := &Result{
		Circuit: c,
		Faults:  faults,
		Status:  make(map[fault.Fault]FaultStatus, n),
	}
	for i := 0; i < n && r.OK(); i++ {
		b := r.Byte()
		if b == 0 {
			continue
		}
		if b > 1+uint8(StatusRedundant) {
			return nil, fmt.Errorf("%w: fault status %d", ErrResultPayload, b)
		}
		res.Status[faults[i]] = FaultStatus(b - 1)
	}
	nt := int(r.Uvarint(1 << 31))
	if r.OK() && nt > r.Remaining() {
		return nil, fmt.Errorf("%w: test count %d exceeds input", ErrResultPayload, nt)
	}
	if r.OK() && nt > 0 {
		res.Tests = make([]sim.Seq, 0, nt)
	}
	for i := 0; i < nt && r.OK(); i++ {
		frames := int(r.Uvarint(1 << 24))
		width := int(r.Uvarint(1 << 24))
		if r.OK() && width != len(c.Inputs) {
			return nil, fmt.Errorf("%w: vector has %d bits, circuit has %d inputs",
				ErrResultPayload, width, len(c.Inputs))
		}
		seq := readPackedSeq(r, frames, width)
		if !r.OK() {
			break
		}
		res.Tests = append(res.Tests, seq)
		res.TestSet = append(res.TestSet, seq...)
	}
	res.Effort.Evals = int64(r.Uvarint(1 << 62))
	res.Effort.Backtracks = int64(r.Uvarint(1 << 62))
	res.FsimStats.Cycles = int64(r.Uvarint(1 << 62))
	res.FsimStats.Evals = int64(r.Uvarint(1 << 62))
	res.FsimStats.Drops = int64(r.Uvarint(1 << 62))
	res.FsimStats.Repacks = int64(r.Uvarint(1 << 62))
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated or non-canonical encoding", ErrResultPayload)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrResultPayload, n)
	}
	return res, nil
}

// CachedRun is RunContext behind a result cache: a hit decodes the
// stored payload (zero generation work), a miss runs ATPG and stores
// the encoding on success. An undecodable cached payload is deleted and
// recomputed, never returned. Unlike Cache.Do it takes no single-flight
// slot -- a cancelled run must still hand its partial Result to the
// caller (the CLI reports partial coverage on SIGINT), which a shared
// flight cannot represent. Services that need N-submissions-one-run
// dedup wrap the cache's Do around their own dispatch instead.
func CachedRun(ctx context.Context, cache *resultcache.Cache, c *netlist.Circuit, faults []fault.Fault, opt Options) (res *Result, src resultcache.Source, err error) {
	if cache == nil {
		res, err = RunContext(ctx, c, faults, opt)
		return res, resultcache.SourceNone, err
	}
	key := CacheKey(c, faults, opt)
	if payload, from, ok := cache.Get(key); ok {
		if res, err := DecodeResultPayload(payload, c, faults); err == nil {
			return res, from, nil
		}
		cache.Delete(key)
	}
	res, err = RunContext(ctx, c, faults, opt)
	if err == nil && res != nil {
		cache.Put(key, EncodeResultPayload(res))
	}
	return res, resultcache.SourceNone, err
}
