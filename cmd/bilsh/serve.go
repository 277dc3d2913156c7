package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/durable"
	"bilsh/internal/metrics"
	"bilsh/internal/server"
)

// cmdServe exposes a persisted index over the HTTP JSON API.
//
// With -data-dir the server runs durably: every insert/delete is
// write-ahead logged to <dir>/wal.log before it is acknowledged, POST
// /save (and /compact) writes an atomic checkpoint, and startup replays
// the log so acked writes survive crashes (see docs/durability.md). The
// -index file only seeds the directory on first boot; after that the
// checkpoint is authoritative.
func cmdServe(args []string) error { return runServe("serve", args, false) }

// cmdShardServe is cmdServe plus the cluster wiring: a shard id for the
// router to verify, an id map translating shard-local row ids to
// cluster-global ids, checkpoint/idmap export for replica bring-up, and
// -replica-of to bootstrap this node from a running primary.
func cmdShardServe(args []string) error { return runServe("shard-serve", args, true) }

func runServe(name string, args []string, shard bool) error {
	fs := newFlagSet(name)
	indexPath := fs.String("index", "", "index file from 'bilsh build' (required unless -data-dir already holds a checkpoint)")
	dataDir := fs.String("data-dir", "", "durable data directory (WAL + checkpoints); implies -mutable")
	fsyncMode := fs.String("fsync", "always", "WAL durability: always (fsync before ack), interval, never")
	fsyncEvery := fs.Duration("fsync-interval", 100*time.Millisecond, "background WAL sync cadence for -fsync=interval")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	mutable := fs.Bool("mutable", false, "enable insert/delete/compact endpoints")
	memtable := fs.Int("memtable", 0, "memtable seal threshold in rows (0 = default 1024)")
	autoCompact := fs.Int("auto-compact", 0, "start a background compaction (a checkpoint under -data-dir) at this many frozen segments (0 disables)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	useMmap := fs.Bool("mmap", false, "serve durable checkpoints off a read-only mapping (paged bilsh.Disk/3 payloads; docs/outofcore.md)")
	rowsBudget := fs.Int64("rows-budget", 0, "resident-set budget in bytes for the mapped exact-row section (0 = kernel-managed)")
	residencyEvery := fs.Duration("residency-interval", 10*time.Second, "cadence for sampling/enforcing the mapped residency policy")
	quantize := fs.String("quantize", "", "override the row store scanned at query time: none or sq8 (default: as built/checkpointed)")
	rerank := fs.Int("rerank", 0, "exact re-rank shortlist factor for sq8 (top k*factor; 0 = keep current)")
	metricsOn := fs.Bool("metrics", true, "expose GET /metrics (Prometheus text; ?format=json for JSON)")
	pprofOn := fs.Bool("pprof", false, "expose the runtime profiler under /debug/pprof/")
	statsEvery := fs.Duration("stats-interval", 0, "log a one-line stats summary at this interval (0 disables)")
	adaptive := fs.Bool("adaptive", false, "re-tune the default query plan online from live traffic (docs/adaptive.md)")
	adaptiveRecall := fs.Float64("adaptive-recall", 0.9, "recall SLO the adaptive default plan targets, in (0,1)")
	adaptiveEvery := fs.Duration("adaptive-interval", 10*time.Second, "re-tune cadence for -adaptive")
	var (
		shardID   *int
		idmapPath *string
		replicaOf *string
	)
	if shard {
		shardID = fs.Int("shard-id", -1, "this server's shard id (the router verifies it against its address list)")
		idmapPath = fs.String("idmap", "", "local↔global id map file, e.g. shard0.ids from 'bilsh shard-split' (default <data-dir>/idmap.txt)")
		replicaOf = fs.String("replica-of", "", "primary base URL; bootstrap -data-dir from its checkpoint and serve read-only")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	replica := shard && *replicaOf != ""
	if *indexPath == "" && *dataDir == "" {
		return fmt.Errorf("%s: -index is required", name)
	}
	if replica && *dataDir == "" {
		return fmt.Errorf("%s: -replica-of needs -data-dir to hold the fetched checkpoint", name)
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if shard && *idmapPath == "" && *dataDir != "" {
		*idmapPath = filepath.Join(*dataDir, "idmap.txt")
	}
	if replica {
		fetched, err := bootstrapReplica(*replicaOf, *dataDir, *idmapPath)
		if err != nil {
			return fmt.Errorf("%s: replica bootstrap from %s: %v", name, *replicaOf, err)
		}
		if fetched {
			fmt.Printf("replica: fetched checkpoint and id map from %s\n", *replicaOf)
		} else {
			fmt.Printf("replica: %s already has a checkpoint, serving it (delete the directory to re-sync)\n", *dataDir)
		}
	}

	policy := core.ResidencyPolicy{PinCodes: true, RowsBudget: *rowsBudget}

	// The server needs the concrete *core.Index for mutation; load either
	// layout and unwrap.
	var (
		ix       *core.Index
		di       *core.DiskIndex
		enforcer interface {
			EnforceResidency() core.ResidencyStats
			Mapped() bool
		}
	)
	if *indexPath != "" {
		ix, di, err = openAnyIndex(*indexPath, *rowsBudget)
		switch {
		case di != nil:
			defer di.Close()
			enforcer = di
			if di.Mapped() {
				fmt.Printf("index %s: serving off mmap (rows budget %s)\n", *indexPath, fmtBudget(*rowsBudget))
			}
		case os.IsNotExist(err) && *dataDir != "":
			// First boot may legitimately have only the data dir; the
			// checkpoint inside it is the index.
		case err != nil:
			return err
		}
	}

	api := (*server.Server)(nil)
	var d *core.DurableIndex
	switch {
	case *dataDir != "":
		d, err = core.OpenDurable(*dataDir, core.DurableOptions{
			Base:                   ix, // nil is fine once a checkpoint exists
			Fsync:                  fsync,
			FsyncInterval:          *fsyncEvery,
			MemtableThreshold:      *memtable,
			AutoCheckpointSegments: *autoCompact,
			Mmap:                   *useMmap,
			Residency:              policy,
		})
		if err != nil {
			return err
		}
		defer d.Close()
		ix = d.Index
		if *useMmap {
			enforcer = d
			if d.Mapped() {
				fmt.Printf("checkpoint: serving off mmap (rows budget %s)\n", fmtBudget(*rowsBudget))
			} else {
				fmt.Printf("checkpoint: mmap requested; maps at the first checkpoint of this fresh seed\n")
			}
		}
		*mutable = !replica // replicas serve reads only
		rec := d.Recovery
		src := "seed"
		if rec.FromCheckpoint {
			src = "checkpoint"
		}
		fmt.Printf("data dir %s: gen %d from %s, replayed %d WAL records", *dataDir, rec.Gen, src, rec.Replayed)
		if rec.TruncatedBytes > 0 {
			fmt.Printf(", truncated %d torn tail bytes", rec.TruncatedBytes)
		}
		if rec.DiscardedWAL {
			fmt.Printf(", discarded stale WAL")
		}
		fmt.Printf(" (fsync=%v)\n", fsync)
		api = server.New(ix, *mutable)
		if *mutable {
			api.SetMutator(d)
		}
		api.EnableSave(func() error { _, err := d.Checkpoint(); return err })
		if shard {
			api.EnableCheckpointFetch(*dataDir)
			api.SetGeneration(d.Gen)
		}
	default:
		ix.ConfigureDynamic(*memtable, *autoCompact)
		api = server.New(ix, *mutable)
		switch {
		case *mutable && di != nil:
			// A paged index re-saves in its own layout; the atomic rename
			// leaves the currently mapped inode untouched.
			out := *indexPath
			api.EnableSave(func() error { return ix.SaveDisk(out) })
		case *mutable:
			// Best-effort persistence for the non-durable server: /save
			// rewrites the index file atomically. It refuses (409) while
			// overlay state is pending — compact first — because WriteTo
			// only serializes the base plane.
			out := *indexPath
			api.EnableSave(func() error {
				return durable.AtomicWrite(out, func(f *os.File) error {
					_, err := ix.WriteTo(f)
					return err
				})
			})
		}
	}
	if *quantize != "" {
		// Re-quantizing after load lets a float32 index (or checkpoint)
		// serve from SQ8 codes — or strip them — without a rebuild.
		kind, err := core.ParseQuantizeKind(*quantize)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if err := ix.SetQuantize(kind, *rerank); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		fmt.Printf("row store: %s (rerank factor %d)\n", kind, ix.Options().RerankFactor)
	}
	if shard {
		api.SetShardID(*shardID)
		if *idmapPath != "" {
			m, err := server.OpenIDMap(*idmapPath)
			if err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			defer m.Close()
			api.SetIDMap(m)
			if n := m.Len(); n > 0 {
				fmt.Printf("id map %s: %d rows mapped, max global id %d\n", *idmapPath, n, m.MaxGlobal())
			}
		}
	}
	api.EnableMetrics(*metricsOn)
	api.EnablePprof(*pprofOn)
	api.SetDrainTimeout(*shutdownTimeout)
	if *statsEvery > 0 {
		logger := metrics.NewLogger(metrics.Default(), *statsEvery, log.Printf)
		logger.Start()
		defer logger.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if enforcer != nil && *residencyEvery > 0 {
		// Background residency loop: refresh the gauges every tick and
		// evict exact-row pages past the budget. Harmless when nothing is
		// mapped (a durable index maps at its first paged checkpoint).
		go func() {
			tick := time.NewTicker(*residencyEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					enforcer.EnforceResidency()
				}
			}
		}()
	}
	if *adaptive {
		api.StartAdaptive(ctx, server.AdaptiveConfig{
			TargetRecall: *adaptiveRecall,
			Interval:     *adaptiveEvery,
			Log:          log.Default(),
		})
		fmt.Printf("adaptive: re-tuning default plan every %v toward recall %.2f\n", *adaptiveEvery, *adaptiveRecall)
	}
	// Bind before announcing so the printed address is the real one (:0
	// resolves to the kernel-assigned port — the crash harness depends on
	// this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("serving %d vectors (dim %d, %d groups) on http://%s (mutable=%v metrics=%v pprof=%v)\n",
		ix.Len(), ix.Dim(), ix.NumGroups(), ln.Addr(), *mutable, *metricsOn, *pprofOn)
	err = api.Serve(ctx, ln)
	if ctx.Err() != nil {
		fmt.Println("shutdown: in-flight requests drained")
	}
	return err
}

// fmtBudget renders a byte budget for log lines (0 = unlimited).
func fmtBudget(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d bytes", b)
}

// bootstrapReplica seeds an empty replica data directory from a running
// primary: trigger a checkpoint there (POST /save), then fetch
// /checkpoint — the raw checkpoint file, header included — and /idmap
// into the local directory. A directory that already holds a checkpoint
// is left alone (fetched=false): the replica resumes from its own state,
// and re-syncing is an explicit operator action (delete the directory).
func bootstrapReplica(primary, dataDir, idmapPath string) (fetched bool, err error) {
	primary = strings.TrimRight(primary, "/")
	ckpt := filepath.Join(dataDir, durable.CheckpointFileName)
	if _, err := os.Stat(ckpt); err == nil {
		return false, nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return false, err
	}
	hc := &http.Client{Timeout: 2 * time.Minute}

	// 1. A fresh checkpoint on the primary, so the fetch reflects every
	// acknowledged write (the WAL itself is not shipped).
	resp, err := hc.Post(primary+"/save", "application/json", strings.NewReader("{}"))
	if err != nil {
		return false, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, fmt.Errorf("POST /save: %d: %s (is the primary running with -data-dir?)",
			resp.StatusCode, strings.TrimSpace(string(body)))
	}

	// 2. The checkpoint bytes, dropped in place atomically.
	if err := fetchToFile(hc, primary+"/checkpoint", ckpt, false); err != nil {
		return false, fmt.Errorf("GET /checkpoint: %v", err)
	}

	// 3. The id map, when the primary has one (403 = it does not; the
	// replica then serves local ids, matching its primary).
	if idmapPath != "" {
		if err := fetchToFile(hc, primary+"/idmap", idmapPath, true); err != nil {
			os.Remove(ckpt) // stay consistent: retry bootstraps both or neither
			return false, fmt.Errorf("GET /idmap: %v", err)
		}
	}
	return true, nil
}

// fetchToFile streams url into path atomically. With optional=true a 403
// (feature not configured on the server) is success without a file.
func fetchToFile(hc *http.Client, url, path string, optional bool) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if optional && resp.StatusCode == http.StatusForbidden {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return durable.AtomicWrite(path, func(f *os.File) error {
		_, err := io.Copy(f, resp.Body)
		return err
	})
}
