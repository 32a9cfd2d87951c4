// Command calloc-serve exposes a multi-model, multi-floor localization
// service over HTTP — one serving node (internal/node) behind flags, or a
// fleet router (internal/cluster) in front of many of them.
//
// Node mode (default): every {floor, backend} pair is a registered localizer
// with its own micro-batch lane, requests route hierarchically (floor
// classifier → position model), and model versions hot-swap under load —
// pushed manually over /v1/swap or produced automatically by the online
// fine-tune loop fed from /v1/feedback.
//
//	calloc-serve -data b3.gob                                # one floor, default backends
//	calloc-serve -data b3.gob -weights b3.model              # serve trained CALLOC weights
//	calloc-serve -data f0.gob,f1.gob -backends calloc,knn,bayes
//	calloc-serve -data f1.gob -floors 1 -addr :8081          # fleet shard owning global floor 1
//
// With several -data files each becomes one floor of the building (all must
// share the AP count); a Naive-Bayes floor classifier is fitted over the
// combined offline databases and registered for hierarchical routing.
// -floors assigns each dataset its global floor index so a fleet can split
// one building's floors across shards that agree on floor numbering.
//
// Router mode (-router -shards shards.json): the process owns no models. It
// proxies /v1/localize and /v1/feedback to the shard owning the request's
// {building, floor} (resolving floor-less localizes through a classifier
// fitted from -data when given), forwards /v1/swap and /v1/ab/{promote,
// abort} checkpoint pushes and overrides to the owner — so each shard's
// stage → shadow → promote gate keeps running per-node — and merges
// /v1/models, /v1/stats, /v1/ab, and /v1/trainer across every member into a
// fleet-wide view. /v1/shards reports membership and health.
//
//	calloc-serve -router -shards shards.json -addr :8080
//	calloc-serve -router -shards shards.json -data f0.gob,f1.gob   # + floor resolver
//
// Node endpoints:
//
//	POST /v1/localize {"rss": [...]}                          -> routed: floor classifier picks the floor
//	POST /v1/localize {"rss": [...], "backend": "knn"}        -> routed, explicit backend
//	POST /v1/localize {"rss": [...], "floor": 1}              -> direct: skip the floor classifier
//	POST /v1/feedback {"rss": [...], "rp": 17, "floor": 0}    -> labelled online sample for the fine-tune loop
//	GET  /v1/models                                           -> registry listing (key, name, version, dims)
//	GET  /v1/trainer                                          -> per-floor fine-tune loop counters
//	POST /v1/swap {"backend": "calloc", "floor": 0, "weights": "<base64>"}
//	                                                          -> hot-swap a new CALLOC weight version
//	POST /v1/swap {..., "stage": true}                        -> stage the weights into the A/B candidate lane instead
//	GET  /v1/ab                                               -> per-key A/B lane status: candidate, shadow counters, gate state
//	POST /v1/ab/promote {"floor": 0}                          -> force-promote the staged candidate (regret window still applies)
//	POST /v1/ab/abort   {"floor": 0}                          -> withdraw the staged candidate
//	GET  /v1/stats                                            -> engine throughput/latency counters (incl. uptime + per-key load)
//	GET  /healthz                                             -> 200 ok
//
// The router serves the same paths (plus GET /v1/shards); its GET views are
// fleet-wide merges with each entry annotated by the owning node.
//
// SIGINT/SIGTERM shut down gracefully: the HTTP server stops accepting, the
// trainers stop, then the engine drains its queued requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// serveFlags collects every parsed flag; main fills it, validate (server.go)
// rejects misconfigurations before any dataset loads or training starts.
type serveFlags struct {
	data, weights, backends, floors, addr, shards string
	precision                                     string
	trainEpochs, maxBatch, workers, queueCap      int
	feedbackMin, abFraction, stageAfter           int
	regretWindow, retries                         int
	promoteAfter                                  int64
	routerBatch                                   int
	maxWait, trainerInterval, probeInterval       time.Duration
	routerWait                                    time.Duration
	fineTuneLR, minDelta, minAgreement            float64
	regretDelta                                   float64
	fineTuneEpochs                                int
	noTrainer, router                             bool
}

func main() {
	var f serveFlags
	flag.StringVar(&f.data, "data", "", "comma-separated dataset gob files from calloc-data, one per floor (required in node mode)")
	flag.StringVar(&f.weights, "weights", "", "comma-separated trained CALLOC weights per floor (omit to quick-train)")
	flag.StringVar(&f.backends, "backends", "calloc,knn,bayes", "comma-separated backends to serve: calloc, knn, bayes, gpc, gbdt, dnn")
	flag.StringVar(&f.floors, "floors", "", "comma-separated global floor index per -data file (default 0,1,...)")
	flag.IntVar(&f.trainEpochs, "train-epochs", 10, "epochs per lesson when quick-training CALLOC without -weights")
	flag.StringVar(&f.precision, "precision", "float64", "CALLOC packed-weight serving precision: float64 (default), float32, or int8 (quantized snapshots; training stays float64)")
	flag.StringVar(&f.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&f.maxBatch, "max-batch", 32, "max coalesced requests per model call")
	flag.DurationVar(&f.maxWait, "max-wait", 500*time.Microsecond, "max time the first request of a window waits (negative: dispatch immediately)")
	flag.IntVar(&f.workers, "workers", 0, "concurrent batch dispatchers shared by all lanes (0 = min(2, GOMAXPROCS))")
	flag.IntVar(&f.queueCap, "queue", 0, "per-lane pending-request bound (0 = 4×max-batch)")
	flag.BoolVar(&f.noTrainer, "no-trainer", false, "disable the online fine-tune loop")
	flag.IntVar(&f.feedbackMin, "feedback-min", 16, "new /v1/feedback samples required before a fine-tune round")
	flag.DurationVar(&f.trainerInterval, "trainer-interval", 2*time.Second, "fine-tune loop poll cadence")
	flag.IntVar(&f.fineTuneEpochs, "finetune-epochs", 6, "epochs per lesson of the fine-tune curriculum")
	flag.Float64Var(&f.fineTuneLR, "finetune-lr", 0.005, "learning rate each fine-tune round restarts at")
	flag.IntVar(&f.abFraction, "ab-fraction", 8, "shadow every Nth routed request through the staged A/B candidate (0 disables the shadow lane)")
	flag.Float64Var(&f.minDelta, "min-delta", 0, "holdout improvement a fine-tune round must clear to count as a win")
	flag.IntVar(&f.stageAfter, "stage-after", 1, "consecutive winning rounds before the candidate is staged into the A/B lane")
	flag.Int64Var(&f.promoteAfter, "promote-after", 32, "live shadow rows a staged candidate must score before promotion (needs -ab-fraction > 0)")
	flag.Float64Var(&f.minAgreement, "min-agreement", 0, "minimum candidate-vs-live agreement over the shadow sample to promote (0 disables)")
	flag.IntVar(&f.regretWindow, "regret-window", 3, "post-promotion trainer ticks that re-validate the promoted model (0 disables rollback-on-regret)")
	flag.Float64Var(&f.regretDelta, "regret-delta", 0, "tolerated holdout regression before a promoted model rolls back")
	flag.BoolVar(&f.router, "router", false, "run as the fleet router instead of a serving node (requires -shards)")
	flag.StringVar(&f.shards, "shards", "", "shard-map JSON file: {building/floor} -> node assignments (router mode)")
	flag.DurationVar(&f.probeInterval, "probe-interval", 2*time.Second, "router health-probe cadence (negative disables)")
	flag.IntVar(&f.retries, "retries", 1, "router retry budget per proxied request on a failed shard")
	flag.IntVar(&f.routerBatch, "router-batch", 0, "router-side coalescing: max concurrent /v1/localize proxies gathered into one upstream batch per shard (<= 1 disables)")
	flag.DurationVar(&f.routerWait, "router-wait", 0, "router coalesce gather window (default 2ms when -router-batch > 1)")
	flag.Parse()

	if err := f.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "calloc-serve: %v\n", err)
		os.Exit(2)
	}
	var err error
	if f.router {
		err = runRouter(f)
	} else {
		err = runServe(f)
	}
	if err != nil {
		fail(err)
	}
}

// Connection timeouts of the HTTP server. A client that trickles its
// request headers, or parks an idle keep-alive connection, would otherwise
// pin a connection (and its goroutine) forever. Body reads are bounded per
// endpoint by the handlers' size limits, so no whole-request ReadTimeout is
// set: a large /v1/swap upload on a slow link stays legal.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the server serveHTTP runs, with the connection
// timeouts above.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveHTTP runs handler on addr until SIGINT/SIGTERM, drains in-flight
// handlers, then runs shutdown (trainer/engine teardown) — so a handler
// mid-request never sees a closed engine.
func serveHTTP(addr string, handler http.Handler, shutdown func()) error {
	srv := newHTTPServer(addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	handlersDone := make(chan struct{})
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		close(handlersDone)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-handlersDone
	shutdown()
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "calloc-serve: %v\n", err)
	os.Exit(1)
}
