package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/durable"
	"bilsh/internal/router"
	"bilsh/internal/vec"
)

// The sharding commands (docs/sharding.md):
//
//	shard-split  cut a built index into per-shard datasets + a shard map
//	shard-serve  serve one shard (serve.go; cmdShardServe)
//	router       scatter-gather front end over running shards

// cmdShardSplit cuts a built index into S shard datasets along its
// level-1 leaves (LPT-balanced), writing per shard an fvecs file and an
// id map ("local global" lines), plus the shard map the router loads. A
// PartitionNone index has no leaves; its rows are dealt round-robin and
// the map is the full-scatter map.
func cmdShardSplit(args []string) error {
	fs := newFlagSet("shard-split")
	indexPath := fs.String("index", "", "index file from 'bilsh build' (required)")
	outDir := fs.String("out", "shards", "output directory")
	shards := fs.Int("shards", 2, "number of shards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("shard-split: -index is required")
	}
	if *shards < 1 {
		return fmt.Errorf("shard-split: -shards must be >= 1, got %d", *shards)
	}
	f, err := os.Open(*indexPath)
	if err != nil {
		return err
	}
	ix, err := core.ReadIndex(f)
	f.Close()
	if err != nil {
		return err
	}
	d := ix.Describe()
	if d.PendingInserts > 0 || d.PendingDeletes > 0 {
		return fmt.Errorf("shard-split: index has %d pending inserts and %d pending deletes; compact and save it first",
			d.PendingInserts, d.PendingDeletes)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Global ids per shard. With a level-1 tree, leaves are the unit of
	// placement (a query's probe set is a set of leaves, so co-locating a
	// leaf keeps its fan-out contribution to one shard); without one,
	// round-robin spreads rows evenly and every query scatters.
	perShard := make([][]int, *shards)
	var m *router.ShardMap
	if tree := ix.Tree(); tree != nil {
		sizes := make([]int, d.Groups)
		for g := 0; g < d.Groups; g++ {
			sizes[g] = len(ix.GroupMembers(g))
		}
		leafToShard := router.AssignLeaves(sizes, *shards)
		m, err = router.NewShardMap(tree, leafToShard, *shards)
		if err != nil {
			return err
		}
		for g := 0; g < d.Groups; g++ {
			s := leafToShard[g]
			perShard[s] = append(perShard[s], ix.GroupMembers(g)...)
		}
	} else {
		m, err = router.ScatterMap(*shards)
		if err != nil {
			return err
		}
		for id := 0; id < ix.Len(); id++ {
			perShard[id%*shards] = append(perShard[id%*shards], id)
		}
	}

	mapPath := filepath.Join(*outDir, "shardmap.bin")
	if err := router.SaveShardMap(mapPath, m); err != nil {
		return err
	}
	for s := 0; s < *shards; s++ {
		gids := perShard[s]
		sort.Ints(gids)
		mat := vec.NewMatrix(len(gids), d.Dim)
		for local, gid := range gids {
			copy(mat.Row(local), ix.Vector(gid))
		}
		fv := filepath.Join(*outDir, fmt.Sprintf("shard%d.fvecs", s))
		if err := dataset.SaveFvecsFile(fv, mat); err != nil {
			return err
		}
		idPath := filepath.Join(*outDir, fmt.Sprintf("shard%d.ids", s))
		err := durable.AtomicWrite(idPath, func(f *os.File) error {
			for local, gid := range gids {
				if _, err := fmt.Fprintf(f, "%d %d\n", local, gid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("shard %d: %6d vectors -> %s, %s\n", s, len(gids), fv, idPath)
	}
	kind := "leaf-aware"
	if !m.LeafAware() {
		kind = "scatter"
	}
	fmt.Printf("shard map (%s, %d leaves) -> %s\n", kind, m.NumLeaves(), mapPath)
	fmt.Printf("next: build each shard with 'bilsh build -data %s/shard<i>.fvecs -bilevel=false' and start 'bilsh shard-serve'\n", *outDir)
	return nil
}

// parseShardAddrs parses the router's -shards flag: shard sets separated
// by ';', replica addresses within a set by ',', the first address being
// the primary. "http://a:1,http://a:2;http://b:1" is two shards, the
// first with one replica.
func parseShardAddrs(s string) ([]router.ShardSet, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no shard addresses given")
	}
	var sets []router.ShardSet
	for i, part := range strings.Split(s, ";") {
		var addrs []string
		for _, a := range strings.Split(part, ",") {
			a = strings.TrimRight(strings.TrimSpace(a), "/")
			if a == "" {
				continue
			}
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			addrs = append(addrs, a)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("shard %d has no addresses", i)
		}
		sets = append(sets, router.ShardSet{Addrs: addrs})
	}
	return sets, nil
}

// cmdRouter runs the scatter-gather front end over running shard
// servers.
func cmdRouter(args []string) error {
	fs := newFlagSet("router")
	mapPath := fs.String("map", "", "shard map from 'bilsh shard-split' (empty = full scatter over all shards)")
	shardsFlag := fs.String("shards", "", "shard addresses: ';' between shards, ',' between a shard's replicas, primary first (required)")
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	spill := fs.Int("spill", 1, "level-1 leaves probed per query (1 = home leaf only; more trades fan-out for recall)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt shard request timeout")
	hedge := fs.Duration("hedge", 0, "launch a hedged attempt on the next replica after this much silence (0 disables)")
	retries := fs.Int("retries", 1, "extra read attempts on other replicas after a failure")
	healthEvery := fs.Duration("health-interval", 2*time.Second, "background shard health-probe cadence")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	adaptive := fs.Bool("adaptive", false, "re-tune the forwarded default query plan online from shard replies (docs/adaptive.md)")
	adaptiveRecall := fs.Float64("adaptive-recall", 0.9, "recall SLO the adaptive forwarded plan targets, in (0,1)")
	adaptiveEvery := fs.Duration("adaptive-interval", 10*time.Second, "re-tune cadence for -adaptive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := parseShardAddrs(*shardsFlag)
	if err != nil {
		return fmt.Errorf("router: -shards: %v", err)
	}
	var m *router.ShardMap
	if *mapPath != "" {
		if m, err = router.LoadShardMap(*mapPath); err != nil {
			return err
		}
	} else {
		if m, err = router.ScatterMap(len(sets)); err != nil {
			return err
		}
	}
	rt, err := router.New(router.Options{
		Map:            m,
		Shards:         sets,
		Spill:          *spill,
		Timeout:        *timeout,
		HedgeDelay:     *hedge,
		Retries:        *retries,
		HealthInterval: *healthEvery,
	})
	if err != nil {
		return err
	}
	rt.SetDrainTimeout(*shutdownTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)
	defer rt.Stop()
	if *adaptive {
		rt.StartAdaptive(ctx, router.AdaptiveConfig{
			TargetRecall: *adaptiveRecall,
			Interval:     *adaptiveEvery,
			Log:          log.Default(),
		})
		fmt.Printf("adaptive: re-tuning forwarded plan every %v toward recall %.2f\n", *adaptiveEvery, *adaptiveRecall)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	kind := "scatter"
	if m.LeafAware() {
		kind = fmt.Sprintf("leaf-aware (%d leaves, spill %d)", m.NumLeaves(), *spill)
	}
	fmt.Printf("routing %d shards, %s, on http://%s (hedge=%v timeout=%v)\n",
		m.NumShards(), kind, ln.Addr(), *hedge, *timeout)
	return drained(ctx, rt.Serve(ctx, ln))
}
