// Command cscd is the shortest-cycle-counting daemon: it serves SCCnt
// queries and a live top-k watchlist over HTTP while absorbing a stream
// of edge updates, with WAL+snapshot durability — the paper's real-time
// monitoring scenario as a process you can point traffic at.
//
// Start it on a graph file (or an empty graph) and stream edges:
//
//	cscd -addr :8337 -data /var/lib/cscd -graph net.txt -k 10
//
// or point it at a serialized index file (any of the v1–v4 formats; a v1
// file is re-sharded on load) — with -mmap and a v3/v4 file (a
// compressed index written by WriteTo) the labels stay file-backed and
// page in on demand, so the daemon serves before the arena is read:
//
//	cscd -addr :8337 -index graph.csc -mmap
//
//	curl localhost:8337/cycle/42
//	curl localhost:8337/cycle/42?maxlen=4
//	curl localhost:8337/top
//	curl -X POST   localhost:8337/edges?flush=1 -d '{"edges":[[1,2],[2,1]]}'
//	curl -X DELETE localhost:8337/edges -d '{"edges":[[1,2]]}'
//	curl localhost:8337/stats
//	curl localhost:8337/metrics
//	curl localhost:8337/debug/trace
//
// With -data, every applied batch is fsynced to a write-ahead log before
// it touches the index and full snapshots are taken periodically, so a
// killed daemon restarts into exactly the state it crashed with (the
// bootstrap flags -graph/-vertices only matter for an empty store). On
// SIGINT/SIGTERM the daemon drains, snapshots, and exits cleanly.
//
// An index the daemon builds (from -graph or -vertices) ranks its hubs by
// the coverage order (-order coverage): greedy cover of sampled shortest
// cycles. On the payment ledger the daemon is measured on, that stores
// 9% fewer label entries than the paper's degree order, which -order
// degree selects. A snapshot records the order, and the sampled orders
// always use seed 0, so a restarted daemon rebuilds merged shards exactly
// as the one before it would have. An -index file carries its own order
// the same way.
//
// The daemon also participates in a replicated cluster (fronted by
// cmd/cscrouter). With -replicate-to URL every committed batch's WAL
// record is shipped to a follower after the local fsync, and Close
// drains the in-flight shipment before releasing the store. With
// -follower the daemon is that follower: it accepts shipped records on
// POST /repl/append (appending to its own WAL before applying), serves
// reads flagged "stale":true, reports its replay position on
// GET /repl/status, and on POST /repl/promote replays to tip and swaps
// to the full serving surface:
//
//	cscd -addr :8440 -data /tmp/f0 -graph net.txt -follower
//	cscd -addr :8337 -data /tmp/w0 -graph net.txt -replicate-to http://127.0.0.1:8440
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	cyclehub "repro"
)

func main() {
	var (
		addr      = flag.String("addr", ":8337", "HTTP listen address")
		data      = flag.String("data", "", "store directory for WAL + snapshots (empty: in-memory only)")
		graphIn   = flag.String("graph", "", "bootstrap graph file (\"n m\" + \"u v\" edge-list format)")
		indexIn   = flag.String("index", "", "bootstrap from a serialized index file (v1–v4; v1 is re-sharded on load) instead of building one")
		useMmap   = flag.Bool("mmap", false, "with -index and a v3/v4 file: mmap the label arena instead of reading it (serve before labels page in)")
		compress  = flag.Bool("compress", false, "build with compressed label storage (delta+varint frozen arena + bloom-screened joins)")
		orderBy   = flag.String("order", "coverage", "hub-ordering strategy for built indexes: coverage | degree (the paper's order) | id | random")
		rerank    = flag.Duration("rerank", 0, "enable online per-shard hub re-ranking, checking drift at this interval (0 = off)")
		vertices  = flag.Int("vertices", 0, "bootstrap an empty graph with this many vertices (when -graph is unset)")
		topK      = flag.Int("k", 0, "maintain a top-k cycle-count watchlist and serve /top")
		maxBatch  = flag.Int("max-batch", 256, "max update ops applied per grace period")
		flushInt  = flag.Duration("flush-interval", 2*time.Millisecond, "max time a partial batch waits before applying")
		mailbox   = flag.Int("mailbox", 4096, "update mailbox capacity (full = backpressure)")
		snapshot  = flag.Int("snapshot-every", 64, "batches between full snapshots (with -data)")
		workers   = flag.Int("workers", 0, "boot build parallelism: shards built at once (0 = all cores)")
		updWork   = flag.Int("update-workers", 0, "batch-apply parallelism: per-shard update streams per batch (0 = all cores, 1 = sequential)")
		noCache   = flag.Bool("no-read-cache", false, "disable the per-vertex result cache (every /cycle read re-joins labels)")
		admit     = flag.String("admission", "block", "full-mailbox policy: block (backpressure), reject (429), shed (drop + count)")
		oobReb    = flag.Int("oob-rebuild-threshold", 0, "defer structural shard rebuilds of at least this many vertices off the write path (0 = always inline)")
		walRetry  = flag.Int("wal-retry", 3, "WAL append retries before degrading to read-only (with -data)")
		noMetrics = flag.Bool("no-metrics", false, "disable the /metrics + /debug/trace observability surface")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog = flag.String("access-log", "", "append one JSON line per HTTP request to this file (\"-\" = stdout)")
		slowQuery = flag.Duration("slow-query", 0, "log /cycle reads at or above this duration as slow, with the queried vertex (0 = off)")
		replTo    = flag.String("replicate-to", "", "ship every committed batch's WAL record to the follower daemon at this base URL (e.g. http://127.0.0.1:8440)")
		follower  = flag.Bool("follower", false, "run as a replication follower: accept shipped WAL records on POST /repl/append, serve flagged stale reads, promote on POST /repl/promote (requires -data)")
	)
	flag.Parse()

	policy, err := cyclehub.ParseAdmission(*admit)
	if err != nil {
		log.Fatalf("cscd: %v", err)
	}

	ordering, err := cyclehub.ParseOrdering(*orderBy)
	if err != nil {
		log.Fatalf("cscd: %v", err)
	}
	buildOpts := []cyclehub.Option{
		cyclehub.WithWorkers(*workers),
		cyclehub.WithOrdering(ordering),
	}
	if *compress {
		buildOpts = append(buildOpts, cyclehub.WithCompression())
	}
	bootstrap := func() (*cyclehub.Index, error) {
		if *indexIn != "" {
			if *graphIn != "" {
				return nil, errors.New("-index and -graph are mutually exclusive")
			}
			t0 := time.Now()
			ix, err := cyclehub.ReadIndexFile(*indexIn, *useMmap)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", *indexIn, err)
			}
			mode := "read"
			if *useMmap {
				mode = "mmap"
			}
			log.Printf("index loaded (%s) from %s in %s (%d label entries)",
				mode, *indexIn, time.Since(t0).Round(time.Millisecond), ix.Stats().Entries)
			return ix, nil
		}
		if *graphIn != "" {
			f, err := os.Open(*graphIn)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			g, err := cyclehub.ReadGraph(f)
			if err != nil {
				return nil, fmt.Errorf("read %s: %w", *graphIn, err)
			}
			log.Printf("building index over %s: %d vertices, %d edges", *graphIn, g.NumVertices(), g.NumEdges())
			t0 := time.Now()
			ix := cyclehub.BuildIndex(g, buildOpts...)
			log.Printf("index built in %s (%d label entries)", time.Since(t0).Round(time.Millisecond), ix.Stats().Entries)
			return ix, nil
		}
		if *vertices <= 0 {
			return nil, errors.New("empty store: need -graph, -index, or -vertices to bootstrap")
		}
		log.Printf("bootstrapping empty graph with %d vertices", *vertices)
		return cyclehub.BuildIndex(cyclehub.NewGraph(*vertices), buildOpts...), nil
	}

	opts := []cyclehub.EngineOption{
		cyclehub.WithBatch(*maxBatch, *flushInt),
		cyclehub.WithMailbox(*mailbox),
		cyclehub.WithSnapshotEvery(*snapshot),
		cyclehub.WithUpdateWorkers(*updWork),
		cyclehub.WithAdmission(policy),
		cyclehub.WithWALRetry(*walRetry),
		cyclehub.WithOOBRebuildThreshold(*oobReb),
	}
	if *rerank > 0 {
		opts = append(opts, cyclehub.WithReRanking(*rerank))
	}
	if *topK > 0 {
		opts = append(opts, cyclehub.WithTopK(*topK))
	}
	if *noCache {
		opts = append(opts, cyclehub.WithoutReadCache())
	}
	if !*noMetrics {
		opts = append(opts, cyclehub.WithMetrics())
	}
	if *pprofOn {
		opts = append(opts, cyclehub.WithPprof())
	}
	if *slowQuery > 0 {
		opts = append(opts, cyclehub.WithSlowQueryThreshold(*slowQuery))
	}
	if *accessLog != "" {
		out := os.Stdout
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("cscd: open access log: %v", err)
			}
			defer f.Close()
			out = f
		}
		opts = append(opts, cyclehub.WithAccessLog(out))
	}
	if *replTo != "" {
		opts = append(opts, cyclehub.WithReplicateTo(*replTo))
	}

	if *follower {
		if *data == "" {
			log.Fatal("cscd: -follower requires -data (the follower's own store directory)")
		}
		if *replTo != "" {
			log.Fatal("cscd: -follower and -replicate-to are mutually exclusive (chained replication is not supported)")
		}
		runFollower(*addr, *data, bootstrap, opts)
		return
	}

	var eng *cyclehub.Engine
	if *data != "" {
		eng, err = cyclehub.OpenEngine(*data, bootstrap, opts...)
	} else {
		var ix *cyclehub.Index
		if ix, err = bootstrap(); err == nil {
			eng, err = cyclehub.NewEngine(ix, opts...)
		}
	}
	if err != nil {
		log.Fatalf("cscd: %v", err)
	}
	// Collect the boot's garbage (build, WAL replay and top-k warm
	// scratch) and return its pages before listening, so serving starts
	// from the live heap, not from wherever the boot's last collection
	// left it.
	debug.FreeOSMemory()
	st := eng.Stats()
	log.Printf("serving %d vertices / %d edges (seq %d) on %s", st.Vertices, st.Edges, st.Seq, *addr)

	srv := &http.Server{Addr: *addr, Handler: eng.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cscd: %v", err)
	}
	if *data != "" {
		if err := eng.Snapshot(); err != nil {
			log.Printf("cscd: final snapshot: %v", err)
		}
	}
	if err := eng.Close(); err != nil {
		log.Printf("cscd: close: %v", err)
	}
	log.Print("bye")
}

// runFollower serves the replication-follower surface: shipped WAL
// records land on POST /repl/append, reads are flagged stale, and POST
// /repl/promote (typically from a cscrouter that lost the primary)
// replays to tip and swaps the full engine handler in.
func runFollower(addr, dir string, bootstrap func() (*cyclehub.Index, error), opts []cyclehub.EngineOption) {
	f, err := cyclehub.OpenFollower(dir, bootstrap, opts...)
	if err != nil {
		log.Fatalf("cscd: open follower: %v", err)
	}
	debug.FreeOSMemory() // as the primary does before it listens
	log.Printf("follower serving on %s (replayed through seq %d)", addr, f.Seq())

	srv := &http.Server{Addr: addr, Handler: f.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("follower shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cscd: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("cscd: follower close: %v", err)
	}
	log.Print("bye")
}
