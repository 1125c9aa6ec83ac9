// Command clusterd is the simulation job server: a long-lived HTTP
// service that accepts simulation jobs and grids as JSON, executes
// them on a bounded worker pool with fingerprint deduplication, and
// persists every result in an on-disk content-addressed cache so
// identical work is never re-simulated across restarts or replicas
// sharing the data directory.
//
// Usage:
//
//	clusterd -addr 127.0.0.1:8090 -data ./clusterd-data
//	clusterd -addr 127.0.0.1:8090 -data ./clusterd-data -tenants tenants.json
//
// With -tenants the server runs multi-tenant: every request (except
// /v1/healthz and /metrics) must carry a configured API key, and each
// tenant's admission quotas are enforced at submit time. Without it the
// server runs open, as before.
//
// -pprof 127.0.0.1:6060 additionally serves net/http/pprof on that
// separate (keep it loopback) listener — off by default, and never
// exposed through the API address.
//
// Fleet mode: -coordinator turns the process into a fleet coordinator
// instead of a worker — it runs no simulations itself, but admits jobs
// once, shards them deterministically by fingerprint hash across the
// -replicas list, fails shards over around dead replicas, and serves
// the same front end, -tenants and -queue included:
//
//	clusterd -coordinator -replicas http://10.0.0.1:8090,http://10.0.0.2:8090
//
// Point the replicas at one shared -data directory (or any shared
// cache backend) and a re-dispatched shard resolves from the result
// cache instead of re-simulating. A coordinator has no trace store, so
// POST /v1/traces answers 501 there. -api-key is the key the
// coordinator presents to multi-tenant replicas. A flag that
// configures only the other mode (-data, -cache-dir, -trace-dir,
// -workers and -progress-interval for a worker; -replicas,
// -probe-interval and -api-key for a coordinator) is a usage error,
// exit status 2.
//
// Endpoints (see ARCHITECTURE.md "Service layer" for the full table):
//
//	POST /v1/jobs    POST /v1/grids    GET /v1/jobs/{id}
//	GET  /v1/jobs/{id}/events          POST /v1/traces
//	GET  /v1/jobs/{id}/trace           (?format=chrome|spans — span timeline)
//	GET  /v1/tracez                    (recent finished spans, server-wide)
//	GET  /v1/healthz                   GET /v1/statsz
//	GET  /metrics    (Prometheus text format)
//
// Every job carries a W3C trace id (continued from an inbound
// traceparent header, or freshly rooted) from HTTP admission through
// queue wait, dispatch and the simulation phases; /v1/jobs/{id}/trace
// renders the timeline, format=chrome ready for chrome://tracing or
// Perfetto. On a coordinator the job trace merges its dispatch spans
// with every replica's spans for the job's trace.
//
// The first line on stdout is "clusterd listening on http://<addr>",
// with the actual port — so -addr 127.0.0.1:0 picks a free port and
// scripts can scrape it. SIGINT/SIGTERM shut down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"clustervp/internal/service"
	"clustervp/internal/service/fleet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
	data := flag.String("data", "clusterd-data", "data directory (result cache and trace store live under it)")
	cacheDir := flag.String("cache-dir", "", "result-cache directory (default <data>/results; \"off\" disables)")
	traceDir := flag.String("trace-dir", "", "trace-store directory (default <data>/traces; \"off\" disables)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "max queued jobs")
	progress := flag.Int64("progress-interval", 50_000, "cycles between job progress events")
	tenants := flag.String("tenants", "", "tenants file enabling API-key auth and per-tenant quotas (see ARCHITECTURE.md)")
	logFormat := flag.String("log-format", "text", "request log format: text or json")
	logLevel := flag.String("log-level", "info", "request log level: debug, info, warn or error")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator instead of a worker (requires -replicas)")
	replicasFlag := flag.String("replicas", "", "comma-separated replica base URLs the coordinator shards across")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "coordinator health-probe period")
	apiKey := flag.String("api-key", "", "API key the coordinator presents to multi-tenant replicas")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkMode(set, *coordinator); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr, logger); err != nil {
			fmt.Fprintln(os.Stderr, "clusterd:", err)
			os.Exit(2)
		}
	}
	if *coordinator {
		replicas, err := parseReplicas(*replicasFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterd:", err)
			os.Exit(2)
		}
		err = runCoordinator(*addr, *tenants, fleet.Options{
			Replicas:      replicas,
			QueueDepth:    *queue,
			ProbeInterval: *probeInterval,
			APIKey:        *apiKey,
			Logger:        logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterd:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *data, *cacheDir, *traceDir, *tenants, workersQueue{*workers, *queue}, *progress, logger); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(1)
	}
}

// Flags that configure only one mode: the worker's local execution, or
// the coordinator's dispatch.
var (
	workerFlags      = []string{"data", "cache-dir", "trace-dir", "workers", "progress-interval"}
	coordinatorFlags = []string{"replicas", "probe-interval", "api-key"}
)

// checkMode rejects a flag set explicitly in the mode it does not
// configure, instead of silently ignoring it.
func checkMode(set map[string]bool, coordinator bool) error {
	if coordinator {
		for _, name := range workerFlags {
			if set[name] {
				return fmt.Errorf("-%s cannot be used with -coordinator", name)
			}
		}
		return nil
	}
	for _, name := range coordinatorFlags {
		if set[name] {
			return fmt.Errorf("-%s requires -coordinator", name)
		}
	}
	return nil
}

// parseReplicas splits and sanity-checks the -replicas list. Order is
// preserved: the list IS the shard space, so every coordinator must be
// given the same order. A URL listed twice would own two shard slots,
// so a duplicate (after trimming trailing slashes) is rejected.
func parseReplicas(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-coordinator requires -replicas (comma-separated base URLs)")
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		u, err := url.Parse(part)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("-replicas: %q is not a base URL (want e.g. http://host:port)", part)
		}
		part = strings.TrimRight(part, "/")
		if slices.Contains(out, part) {
			return nil, fmt.Errorf("-replicas: %s is listed twice", part)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, errors.New("-replicas: no usable URLs")
	}
	return out, nil
}

// startPprof serves the net/http/pprof handlers on their own listener
// with a dedicated mux, so the profiling surface is never reachable
// through the API address (and never passes through auth, logging or
// the fleet router). Off unless -pprof is given; bind it to loopback.
func startPprof(addr string, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Error("pprof server exited", "err", err)
		}
	}()
	return nil
}

// workersQueue bundles the two pool knobs so run keeps a readable arity.
type workersQueue struct {
	workers int
	queue   int
}

// buildLogger assembles the slog request logger on stderr, leaving
// stdout to the "listening on" line scripts scrape.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: must be text or json", format)
	}
}

// resolveDir applies the <data>-relative default and the "off" switch.
func resolveDir(override, data, sub string) string {
	switch override {
	case "":
		return filepath.Join(data, sub)
	case "off":
		return ""
	default:
		return override
	}
}

// loadTenants reads the -tenants file; an empty path means open mode.
func loadTenants(path string, logger *slog.Logger) ([]service.Tenant, error) {
	if path == "" {
		return nil, nil
	}
	tenants, err := service.LoadTenantsFile(path)
	if err != nil {
		return nil, err
	}
	// Names only — API keys must never reach the log stream.
	names := make([]string, 0, len(tenants))
	for _, t := range tenants {
		names = append(names, t.Name)
	}
	logger.Info("multi-tenant mode", "tenants", names)
	return tenants, nil
}

// runCoordinator boots the fleet coordinator variant: the same front
// end, tenants included, over a dispatcher instead of a local engine.
func runCoordinator(addr, tenantsPath string, opts fleet.Options) error {
	tenants, err := loadTenants(tenantsPath, opts.Logger)
	if err != nil {
		return err
	}
	co, err := fleet.New(opts, tenants...)
	if err != nil {
		return err
	}
	defer co.Close()
	opts.Logger.Info("coordinator mode", "replicas", opts.Replicas)
	return serve(addr, co.Handler())
}

func run(addr, data, cacheDir, traceDir, tenantsPath string, wq workersQueue, progress int64, logger *slog.Logger) error {
	tenants, err := loadTenants(tenantsPath, logger)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Options{
		Workers:          wq.workers,
		QueueDepth:       wq.queue,
		CacheDir:         resolveDir(cacheDir, data, "results"),
		TraceDir:         resolveDir(traceDir, data, "traces"),
		ProgressInterval: progress,
		Tenants:          tenants,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	return serve(addr, srv.Handler())
}

// serve runs the HTTP server until SIGINT/SIGTERM, printing the
// "listening on" line scripts scrape.
func serve(addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("clusterd listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Request contexts derive from the signal context, so a shutdown
	// also ends long-lived /events streams — otherwise one watcher of
	// an unfinished job would pin Shutdown to its full timeout.
	hs := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "clusterd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shutCtx)
	}
}
