package server

import (
	"io"
	"net/http"
	"os"
	"strconv"

	"bilsh/internal/durable"
	"bilsh/internal/httpx"
)

// Shard-side additions for the sharded serving tier (docs/sharding.md):
// an identity endpoint the router health-checks and verifies its
// configuration against, and a checkpoint export that ships the durable
// snapshot to replicas. `bilsh shard-serve` wires both; a plain `bilsh
// serve` leaves them unconfigured (shard -1, checkpoint 403).

// SetShardID labels this server as one shard of a cluster. The id is
// reported by GET /shard/info; the router refuses to use an address
// whose reported id does not match its configuration, which turns a
// swapped-address deployment mistake into a visible health error instead
// of silently wrong results. Call before Handler.
func (s *Server) SetShardID(id int) { s.shardID = id }

// SetIDMap installs the local↔global id translation (see IDMap): query
// and batch results report global ids, and delete targets are global
// ids. Call before Handler.
func (s *Server) SetIDMap(m *IDMap) { s.idmap = m }

// EnableCheckpointFetch mounts GET /checkpoint over the durable data
// directory dir, the snapshot-shipping half of replica bring-up: the
// replica POSTs /save here and then fetches /checkpoint into its own
// data directory. Empty dir leaves the endpoint answering 403. Call
// before Handler.
func (s *Server) EnableCheckpointFetch(dir string) { s.ckptDir = dir }

// SetGeneration supplies the durable checkpoint generation for
// /shard/info (wire DurableIndex.Gen here); nil reports 0. Call before
// Handler.
func (s *Server) SetGeneration(fn func() uint64) { s.gen = fn }

// shardInfo is the GET /shard/info reply.
type shardInfo struct {
	// Shard is the configured shard id, -1 when the server is not part
	// of a cluster.
	Shard int `json:"shard"`
	// Epoch is the index snapshot epoch (monotone across publications).
	Epoch uint64 `json:"epoch"`
	// Live is the number of live (non-tombstoned) rows.
	Live int `json:"live"`
	// Dim is the vector dimensionality.
	Dim int `json:"dim"`
	// Groups is the number of level-1 partitions in this shard's own
	// index (unrelated to the cluster shard map).
	Groups int `json:"groups"`
	// MaxGlobalID is the largest global id this shard holds (-1 when
	// empty); the router seeds its id allocator from the cluster-wide
	// maximum.
	MaxGlobalID int `json:"max_global_id"`
	// Generation is the durable checkpoint generation (0 when the shard
	// is not running durably).
	Generation uint64 `json:"generation"`
	// Mutable reports whether the mutation endpoints are enabled —
	// false distinguishes a read replica from a primary.
	Mutable bool `json:"mutable"`
	// PendingInserts counts overlay rows not yet folded by a compaction.
	PendingInserts int `json:"pending_inserts"`
}

func (s *Server) handleShardInfo(w http.ResponseWriter, _ *http.Request) {
	d := s.ix.Describe()
	info := shardInfo{
		Shard:          s.shardID,
		Epoch:          d.Epoch,
		Live:           d.Live,
		Dim:            d.Dim,
		Groups:         d.Groups,
		Mutable:        s.mutable,
		PendingInserts: d.PendingInserts,
	}
	if s.idmap != nil {
		info.MaxGlobalID = s.idmap.MaxGlobal()
	} else {
		// Without a map, local ids are the global ids (dense 0..total-1).
		info.MaxGlobalID = d.N + d.PendingInserts - 1
	}
	if s.gen != nil {
		info.Generation = s.gen()
	}
	httpx.WriteJSON(w, http.StatusOK, info)
}

// handleCheckpoint streams the shard's current checkpoint file — header
// included, so the bytes drop into a replica's data directory unchanged.
// 403 when the server has no durable data directory, 404 when the
// directory has no checkpoint yet (POST /save writes one).
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.ckptDir == "" {
		httpx.Error(w, http.StatusForbidden,
			"checkpoint export is not configured (start the server with -data-dir)")
		return
	}
	gen, rc, size, err := durable.ExportCheckpoint(s.ckptDir)
	if err != nil {
		if os.IsNotExist(err) {
			httpx.Error(w, http.StatusNotFound, "no checkpoint yet (POST /save writes one)")
			return
		}
		httpx.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("X-Bilsh-Generation", strconv.FormatUint(gen, 10))
	io.Copy(w, rc)
}

// handleIDMap streams the shard's id map in its file format ("local
// global" lines), the second half of replica bring-up: a replica that
// fetched /checkpoint fetches /idmap into its own map file so it reports
// the same global ids as its primary. 403 when no id map is installed.
func (s *Server) handleIDMap(w http.ResponseWriter, _ *http.Request) {
	if s.idmap == nil {
		httpx.Error(w, http.StatusForbidden, "no id map is configured on this server")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.idmap.WriteTo(w)
}
