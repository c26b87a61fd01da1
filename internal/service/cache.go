package service

import (
	"context"
	"encoding/json"
	"strconv"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/resultcache"
)

// Content-addressed result caching. Every job kind is a deterministic
// function of its request, so a request's identity -- the parsed
// circuit, its collapsed fault list, and the result-affecting knobs --
// names its Result. executeCached wraps the kind dispatch in the
// cache's single-flight Do: the first submission computes and stores
// the canonical JSON payload, repeats decode it (byte-identical, since
// every path round-trips through the same marshalling), and N
// concurrent identical submissions run the pipeline exactly once.

// cachePayloadVersion namespaces the service's cache keys: stored
// payloads are canonical JSON of service.Result, and any
// shape-changing edit to that struct must bump this tag so stale
// entries miss instead of deserializing wrong.
const cachePayloadVersion = "service.v2"

// requestKey derives the request's cache key. The circuit contributes
// through its canonical bench rendering and the fault-bearing kinds
// through the collapsed fault list, both via the checkpoint identity
// hashes; everything else that can move the response -- the kind, the
// retime mode, ATPG options, the fault-sim vectors, the prefix fill and
// seed -- folds into the options slot. Result-neutral request fields
// (TimeoutMS, and the ATPG Workers and Backends, whose runs are
// byte-identical to the serial one) are deliberately excluded, so
// serial, parallel and distributed submissions share one entry.
// Equivalent spellings are normalized ("" == "period", "" == "zeros",
// seed ignored unless the fill is random) so they share an entry.
func requestKey(req *Request, c *netlist.Circuit) resultcache.Key {
	opt := req.ATPG.Options()
	var faults []fault.Fault
	switch req.Kind {
	case KindATPG, KindFaultSim, KindDeriveTests:
		faults, _ = fault.Collapse(c)
	}
	ch, fh, oh := atpg.IdentityHashes(c, faults, opt)

	parts := []string{cachePayloadVersion, string(req.Kind)}
	switch req.Kind {
	case KindRetime:
		mode := req.Mode
		if mode == "" {
			mode = "period"
		}
		parts = append(parts, mode)
	case KindATPG:
		parts = append(parts, strconv.FormatUint(oh, 16))
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
		parts = append(parts,
			strconv.FormatUint(oh, 16),
			fill,
			strconv.FormatInt(seed, 10))
	}
	return resultcache.Key{
		Circuit: ch,
		Faults:  fh,
		Options: resultcache.ParamsHash(parts...),
	}
}

// executeCached answers the request from the result cache when it can,
// running the real pipeline under the cache's single-flight otherwise.
// A stored payload that no longer deserializes (schema skew that
// slipped past the version tag) is deleted and recomputed, never
// served.
func (s *Service) executeCached(ctx context.Context, id string, req *Request, c *netlist.Circuit) (*Result, error) {
	if s.cache == nil {
		return s.dispatch(ctx, id, req, c)
	}
	key := requestKey(req, c)
	if s.jobAttempt(id) > 1 {
		return s.executeCachedRetry(ctx, id, req, c, key)
	}
	payload, src, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		res, err := s.dispatch(ctx, id, req, c)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if err := json.Unmarshal(payload, res); err != nil {
		s.cache.Delete(key)
		s.reg.Counter("cache.payload_errors").Inc()
		s.setJobCache(id, key, resultcache.SourceNone)
		return s.dispatch(ctx, id, req, c)
	}
	s.setJobCache(id, key, src)
	return res, nil
}

// executeCachedRetry is the retry attempts' cache path: consult the
// tiers directly and compute outside the single-flight. A retried
// attempt must never join a pending flight -- the flight's owner may
// be the very computation the watchdog just declared wedged, and
// joining it would deadlock the retry behind the attempt it replaces.
// The result is still stored, so later identical submissions hit.
func (s *Service) executeCachedRetry(ctx context.Context, id string, req *Request, c *netlist.Circuit, key resultcache.Key) (*Result, error) {
	if payload, src, ok := s.cache.Get(key); ok {
		res := &Result{}
		if err := json.Unmarshal(payload, res); err == nil {
			s.setJobCache(id, key, src)
			return res, nil
		}
		s.cache.Delete(key)
		s.reg.Counter("cache.payload_errors").Inc()
	}
	res, err := s.dispatch(ctx, id, req, c)
	if err != nil {
		return nil, err
	}
	if payload, err := json.Marshal(res); err == nil {
		s.cache.Put(key, payload)
	}
	s.setJobCache(id, key, resultcache.SourceNone)
	return res, nil
}

// jobAttempt reads the job's current attempt number; 0 for unknown IDs.
func (s *Service) jobAttempt(id string) int {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// setJobCache records how the job's result was obtained, for the view
// (and the HTTP layer's ETag / X-Cache-Status).
func (s *Service) setJobCache(id string, key resultcache.Key, src resultcache.Source) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return
	}
	j.mu.Lock()
	j.cacheKey = key.String()
	j.cacheSrc = src.String()
	j.mu.Unlock()
}
