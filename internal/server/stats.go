package server

import (
	"encoding/json"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/storage"
	"corec/internal/transport"
	"corec/internal/types"
)

// Stats is a server's self-reported status, served over MsgStats as JSON
// so admin tools (corec-cli status) work across process boundaries.
type Stats struct {
	// ID is the server's logical ID.
	ID int `json:"id"`
	// Mode, NLevel, DataShards, Domain, Servers and Elastic are the fleet's
	// shape as this server runs it: the policy, the failures tolerated, the
	// Reed-Solomon k, the bounds the directory cuts into cells, the member
	// count its placement sees, and whether membership is elastic (its
	// placement's epoch has moved, which a static fleet's never does; the
	// gossip agent attaches only after the server listens). A remote handle
	// reads them to place as the servers do.
	Mode       policy.Mode  `json:"mode"`
	NLevel     int          `json:"nlevel"`
	DataShards int          `json:"k"`
	Domain     geometry.Box `json:"domain"`
	Servers    int          `json:"servers"`
	Elastic    bool         `json:"elastic,omitempty"`
	// Load is the current in-flight request count.
	Load int64 `json:"load"`
	// Objects/Replicas/Shards count locally resident payloads.
	Objects  int `json:"objects"`
	Replicas int `json:"replicas"`
	Shards   int `json:"shards"`
	// ObjectBytes/ReplicaBytes/ShardBytes are the corresponding volumes.
	ObjectBytes  int64 `json:"object_bytes"`
	ReplicaBytes int64 `json:"replica_bytes"`
	ShardBytes   int64 `json:"shard_bytes"`
	// Replicated/Encoded count primary objects by resilience state.
	Replicated int `json:"replicated"`
	Encoded    int `json:"encoded"`
	// Efficiency is this server's storage efficiency over primary data.
	Efficiency float64 `json:"efficiency"`
	// DirEntries counts the records in the local directory shard.
	DirEntries int `json:"dir_entries"`
	// PendingEncodes is the background demotion queue length.
	PendingEncodes int `json:"pending_encodes"`
	// TokenlessEncodes counts the encodes this server ran without its
	// group's encoding token: the leader was unreachable, or refused the
	// token past acquireToken's bound.
	TokenlessEncodes int64 `json:"tokenless_encodes,omitempty"`
	// PendingRepairs is the recovery queue length (0 when not recovering).
	PendingRepairs int `json:"pending_repairs"`
	// ScrubPasses is the number of completed anti-entropy scrub passes;
	// Scrub sums their reports. Both live with this server instance: a
	// killed server's tallies leave with it, and its replacement starts at 0.
	ScrubPasses int64        `json:"scrub_passes"`
	Scrub       scrub.Report `json:"scrub"`
	// EncodeWorkers is the erasure engine's range-parallelism bound
	// (0 when the server is not erasure-coding).
	EncodeWorkers int `json:"encode_workers,omitempty"`
	// DecodeCacheHits/Misses count decode-matrix cache outcomes on degraded
	// reads and recovery; both zero when the server is not erasure-coding.
	DecodeCacheHits   int64 `json:"decode_cache_hits,omitempty"`
	DecodeCacheMisses int64 `json:"decode_cache_misses,omitempty"`
	// Predictions/PredictionHits are the CoREC classifier's lookahead
	// counters; both zero in the modes that run no classifier.
	Predictions    int64 `json:"predictions,omitempty"`
	PredictionHits int64 `json:"prediction_hits,omitempty"`
	// Storage is the tiered storage engine's snapshot (shard placement
	// across mem/disk/remote, spill/upload/prefetch counters).
	Storage storage.Stats `json:"storage"`
}

// CollectStats builds the status report.
func (s *Server) CollectStats() Stats {
	st := Stats{
		ID:         int(s.id),
		Mode:       s.cfg.Policy.Mode,
		NLevel:     s.cfg.Policy.NLevel,
		DataShards: s.cfg.Policy.K,
		Domain:     s.cfg.Domain,
		Servers:    len(s.place.Members()),
		Elastic:    s.place.Epoch() > 0,
	}
	s.mu.Lock()
	st.Objects = len(s.objects)
	st.Replicas = len(s.replicas)
	st.Efficiency = s.decider.Efficiency(s.dataRepl, s.dataEnc)
	for _, o := range s.objects {
		st.ObjectBytes += int64(len(o.Data))
	}
	for _, o := range s.replicas {
		st.ReplicaBytes += int64(len(o.Data))
	}
	for _, rec := range s.local {
		switch rec.State {
		case types.StateReplicated:
			st.Replicated++
		case types.StateEncoded:
			st.Encoded++
		}
	}
	if s.repairQueue != nil {
		st.PendingRepairs = s.repairQueue.Len()
	}
	s.mu.Unlock()
	st.DirEntries = s.dir.count()
	st.Shards = s.store.Len()
	for _, k := range s.store.Keys() {
		if n, ok := s.store.Size(k); ok {
			st.ShardBytes += n
		}
	}
	st.Storage = s.store.Stats()
	st.Load = s.Load()
	st.ScrubPasses = s.ScrubPasses()
	s.scrubMu.Lock()
	st.Scrub = s.scrubTotal
	s.scrubMu.Unlock()
	s.encMu.Lock()
	st.PendingEncodes = len(s.encQueue)
	if s.encRunning {
		st.PendingEncodes++
	}
	s.encMu.Unlock()
	st.TokenlessEncodes = s.tokenless.Load()
	if s.codec != nil {
		st.EncodeWorkers = s.codec.Workers()
		if cs, ok := s.codec.DecodeCacheStats(); ok {
			st.DecodeCacheHits = cs.Hits
			st.DecodeCacheMisses = cs.Misses
		}
	}
	if cls := s.Classifier(); cls != nil {
		st.Predictions, st.PredictionHits = cls.Stats()
	}
	return st
}

func (s *Server) handleStats(req *transport.Message) *transport.Message {
	st := s.CollectStats()
	data, err := json.Marshal(st)
	if err != nil {
		return transport.Errf("server %d: stats: %v", s.id, err)
	}
	return &transport.Message{Kind: transport.MsgOK, Data: data, Num: st.Load}
}
