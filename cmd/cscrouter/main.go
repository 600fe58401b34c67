// Command cscrouter is the failover-aware routing tier of a replicated
// cscd cluster. It holds no index — only a vertex→shard→group routing
// table (fetched from a worker's GET /cluster/shards and placed by
// size-balanced label-byte bins) plus per-group health state, and it:
//
//   - fans GET /cycle/{v} to the worker group owning v's shard, with a
//     per-request deadline and bounded retries with backoff; trivial
//     vertices (no shard, structurally zero cycles) are answered locally
//     without a proxy hop;
//   - broadcasts POST/DELETE /edges to every group (each group holds the
//     full index), relying on worker-side coalescing for idempotence;
//   - probes every group's primary (GET /stats) and follower
//     (GET /repl/status); after -probe-misses consecutive missed probes
//     of a primary with a live follower it POSTs /repl/promote and
//     repoints the group — failover, never failed back automatically;
//   - serves /cluster/table, /healthz (?ready=1 turns a degraded cluster
//     into 503), /stats, and Prometheus /metrics with replication-lag
//     and failover families.
//
// A three-process cluster on one machine:
//
//	cscd -addr :8337 -data /tmp/w0 -graph net.txt -replicate-to http://127.0.0.1:8440
//	cscd -addr :8440 -data /tmp/f0 -graph net.txt -follower
//	cscrouter -addr :8000 -group http://127.0.0.1:8337,http://127.0.0.1:8440
//
//	curl localhost:8000/cycle/42
//	curl localhost:8000/cluster/table
//
// Repeat -group for more worker groups; reads partition across them by
// shard placement, writes broadcast to all.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// groupFlags collects repeated -group primary[,follower] values.
type groupFlags []dist.GroupConfig

func (g *groupFlags) String() string {
	var parts []string
	for _, c := range *g {
		s := c.Primary
		if c.Follower != "" {
			s += "," + c.Follower
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

func (g *groupFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) > 2 {
		return fmt.Errorf("want primary_url[,follower_url], got %q", v)
	}
	cfg := dist.GroupConfig{Primary: strings.TrimRight(parts[0], "/")}
	if len(parts) == 2 {
		cfg.Follower = strings.TrimRight(parts[1], "/")
	}
	if cfg.Primary == "" {
		return fmt.Errorf("empty primary url in %q", v)
	}
	*g = append(*g, cfg)
	return nil
}

func main() {
	var groups groupFlags
	flag.Var(&groups, "group", "worker group as primary_url[,follower_url]; repeat for more groups (reads partition across groups by shard placement, writes broadcast to all)")
	var (
		addr       = flag.String("addr", ":8000", "HTTP listen address")
		tableFrom  = flag.String("table-from", "", "worker URL to fetch the shard table from (default: the first group's primary)")
		tableWait  = flag.Duration("table-wait", 30*time.Second, "how long to keep retrying the shard-table fetch while workers boot")
		probeEvery = flag.Duration("probe-interval", 250*time.Millisecond, "health-probe cadence per worker group")
		probeTO    = flag.Duration("probe-timeout", time.Second, "deadline for one health probe")
		misses     = flag.Int("probe-misses", 3, "consecutive missed probes of a primary before failing over to its follower")
		reqTO      = flag.Duration("request-timeout", 2*time.Second, "deadline for one proxied attempt")
		retryMax   = flag.Int("retry", 1, "extra attempts per endpoint after a network error or 5xx")
		backoff    = flag.Duration("retry-backoff", 25*time.Millisecond, "pause before the first retry, doubling per attempt")
		tblRefresh = flag.Duration("table-refresh", 2*time.Second, "how often to re-fetch the shard table from a live worker (writes can merge components and re-shard vertices)")
		noMetrics  = flag.Bool("no-metrics", false, "disable the /metrics surface")
	)
	flag.Parse()

	if len(groups) == 0 {
		log.Fatal("cscrouter: need at least one -group primary_url[,follower_url]")
	}
	src := *tableFrom
	if src == "" {
		src = groups[0].Primary
	}

	// Workers may still be building their index; retry the table fetch
	// until -table-wait elapses, backing off from 10ms to 500ms so a
	// router started beside booting workers picks the table up soon
	// after it is served.
	var (
		table *dist.Table
		err   error
	)
	deadline := time.Now().Add(*tableWait)
	for wait := 10 * time.Millisecond; ; wait = min(2*wait, 500*time.Millisecond) {
		table, err = dist.FetchTable(src, len(groups), nil)
		if err == nil || time.Now().After(deadline) {
			break
		}
		log.Printf("cscrouter: shard table not ready at %s (%v), retrying in %v", src, err, wait)
		time.Sleep(wait)
	}
	if err != nil {
		log.Fatalf("cscrouter: fetch shard table from %s: %v", src, err)
	}
	log.Printf("routing %d vertices over %d shard slots across %d groups", table.Vertices, len(table.OwnerOf), len(groups))

	var reg *obs.Registry
	if !*noMetrics {
		reg = obs.New()
	}
	router, err := dist.NewRouter(table, groups, dist.RouterOptions{
		ProbeInterval:  *probeEvery,
		ProbeTimeout:   *probeTO,
		ProbeMisses:    *misses,
		RequestTimeout: *reqTO,
		RetryMax:       *retryMax,
		RetryBackoff:   *backoff,
		TableRefresh:   *tblRefresh,
		Metrics:        reg,
	})
	if err != nil {
		log.Fatalf("cscrouter: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: router.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	log.Printf("routing on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cscrouter: %v", err)
	}
	_ = router.Close()
	log.Print("bye")
}
