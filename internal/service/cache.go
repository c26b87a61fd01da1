package service

import (
	"context"
	"encoding/json"
	"strconv"

	"repro/internal/atpg"
	"repro/internal/resultcache"
)

// Request-keyed result caching. Every job kind is a deterministic
// function of its request, so the normalized request names its Result.
// executeCached looks that name up before anything is parsed: a hit
// decodes the first run's canonical JSON payload (byte-identical, since
// every path round-trips through the same marshalling) and runs no
// stage, and a miss parses and runs the pipeline under the cache's
// single-flight, so N concurrent identical submissions compute once.

// cachePayloadVersion namespaces the service's cache keys: stored
// payloads are canonical JSON of service.Result, and any
// shape-changing edit to that struct -- or to what requestKey hashes
// -- must bump this tag so stale entries miss instead of deserializing
// wrong.
const cachePayloadVersion = "service.v2"

// requestKey derives the request's cache key from the request alone; it
// parses nothing. The Circuit slot hashes the bench text as submitted,
// so two texts that differ only in whitespace or comments get separate
// entries. The request names no fault list of its own (the kind and the
// circuit determine it), so the Faults slot is zero. Everything else
// that can move the response -- the kind, the retime mode, the ATPG
// options hash, the fault-sim vectors, the prefix fill and seed -- folds
// into the Options slot. Result-neutral fields (TimeoutMS, and the ATPG
// Workers and Backends, whose runs are byte-identical to the serial
// one) stay out, so serial, parallel and distributed submissions share
// one entry. Equivalent spellings are normalized ("" == "period",
// "" == "zeros", seed ignored unless the fill is random) so they share
// an entry too.
func requestKey(req *Request) resultcache.Key {
	options := strconv.FormatUint(atpg.OptionsHash(req.ATPG.Options()), 16)
	parts := []string{cachePayloadVersion, string(req.Kind)}
	switch req.Kind {
	case KindRetime:
		mode := req.Mode
		if mode == "" {
			mode = "period"
		}
		parts = append(parts, mode)
	case KindATPG:
		parts = append(parts, options)
	case KindFaultSim:
		parts = append(parts, req.Tests)
	case KindDeriveTests:
		fill := req.Fill
		if fill == "" {
			fill = "zeros"
		}
		seed := req.Seed
		if fill != "random" {
			seed = 0
		}
		parts = append(parts, options, fill, strconv.FormatInt(seed, 10))
	}
	return resultcache.Key{
		Circuit: resultcache.ParamsHash(req.Bench),
		Options: resultcache.ParamsHash(parts...),
	}
}

// executeCached answers the job from the result cache when it can and
// computes it otherwise. A first attempt goes through the cache's
// single-flight Do. A retried attempt must never join a pending flight
// -- the flight's leader may be the very attempt the watchdog just
// abandoned, and joining it would deadlock the retry behind the attempt
// it replaces -- so it consults the tiers with Get and computes on a
// miss. A stored payload that no longer deserializes (schema skew that
// slipped past the version tag) is deleted, counted, recomputed and
// replaced, never served.
func (s *Service) executeCached(ctx context.Context, j *Job) (*Result, error) {
	key := requestKey(&j.req)
	j.mu.Lock()
	retried := j.attempt > 1
	j.mu.Unlock()
	var (
		payload []byte
		src     resultcache.Source
		ok      bool
	)
	if retried {
		payload, src, ok = s.cache.Get(key)
	} else {
		var err error
		payload, src, err = s.cache.Do(ctx, key, func() ([]byte, error) {
			res, err := s.compute(ctx, j)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		})
		if err != nil {
			return nil, err
		}
		ok = true
	}
	if ok {
		res := &Result{}
		if json.Unmarshal(payload, res) == nil {
			j.setCache(key, src)
			return res, nil
		}
		s.cache.Delete(key)
		s.reg.Counter("cache.payload_errors").Inc()
	}
	res, err := s.compute(ctx, j)
	if err != nil {
		return nil, err
	}
	if payload, err := json.Marshal(res); err == nil {
		s.cache.Put(key, payload)
	}
	j.setCache(key, resultcache.SourceNone)
	return res, nil
}

// setCache records how the job's result was obtained, for the view
// (and the HTTP layer's ETag / X-Cache-Status).
func (j *Job) setCache(key resultcache.Key, src resultcache.Source) {
	j.mu.Lock()
	j.cacheKey = key.String()
	j.cacheSrc = src.String()
	j.mu.Unlock()
}
