package node

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"calloc/internal/serve"
	"calloc/internal/wire"
)

// Body bounds of the node wire endpoints. A localize fingerprint is a few
// hundred RSS values (a few KB of JSON); feedback adds one label. The batch
// endpoint carries up to thousands of rows, and swap carries a full weight
// checkpoint in base64, so those get proportionally larger caps.
const (
	maxLocalizeBody = 1 << 20  // /v1/localize, /v1/feedback, A/B overrides
	maxBatchBody    = 32 << 20 // /v1/localize/batch
	maxSwapBody     = 64 << 20 // /v1/swap (base64 weight blobs)
)

// statusClientClosedRequest is the nginx-convention status for "the client
// went away before we answered" — context.Canceled on the request context.
// It keeps client disconnects out of both the 4xx (client fault) and 5xx
// (server fault) dashboards.
const statusClientClosedRequest = 499

// localizeReq is the pooled decode target of /v1/localize. Fields must be
// reset between uses: json.Unmarshal leaves absent fields untouched, so a
// stale Floor or Backend from the previous request on this buffer would
// silently leak into the next one.
type localizeReq struct {
	RSS     []float64   `json:"rss"`
	Backend string      `json:"backend"`
	Floor   wire.OptInt `json:"floor"`
}

//calloc:noalloc
func (q *localizeReq) reset() {
	q.RSS = q.RSS[:0]
	q.Backend = ""
	q.Floor = wire.OptInt{}
}

// batchQuery is one row of a /v1/localize/batch request. Backend and Floor
// are per-row overrides of the batch-level defaults.
type batchQuery struct {
	RSS     []float64   `json:"rss"`
	Backend string      `json:"backend"`
	Floor   wire.OptInt `json:"floor"`
}

// batchReq is the pooled decode target of /v1/localize/batch.
type batchReq struct {
	Backend string       `json:"backend"`
	Queries []batchQuery `json:"queries"`
}

// reset clears every slot up to capacity, not just length: decoding a JSON
// array into a reused slice re-fills old slots without zeroing fields the new
// element omits, so a row that skips "floor" would otherwise inherit the
// floor of whatever row sat in that slot last request.
//
//calloc:noalloc
func (b *batchReq) reset() {
	b.Backend = ""
	qs := b.Queries[:cap(b.Queries)]
	for i := range qs {
		qs[i].RSS = qs[i].RSS[:0]
		qs[i].Backend = ""
		qs[i].Floor = wire.OptInt{}
	}
	b.Queries = b.Queries[:0]
}

// feedbackReq is the pooled decode target of /v1/feedback.
type feedbackReq struct {
	RSS   []float64 `json:"rss"`
	RP    int       `json:"rp"`
	Floor int       `json:"floor"`
}

//calloc:noalloc
func (q *feedbackReq) reset() {
	q.RSS = q.RSS[:0]
	q.RP = 0
	q.Floor = 0
}

// wireBuf carries everything one request on the hot wire path needs: the
// body read buffer, the response emit buffer, and the decode targets. One
// pool entry serves one request at a time, so the slices inside amortise to
// zero steady-state allocations.
type wireBuf struct {
	body  []byte
	out   []byte
	req   localizeReq
	batch batchReq
	fb    feedbackReq
}

var bufPool = sync.Pool{
	New: func() any {
		return &wireBuf{
			body: make([]byte, 0, 4096),
			out:  make([]byte, 0, 256),
		}
	},
}

// wireCounters tracks wire-level failures the engine never sees — malformed
// or oversized bodies, client disconnects — plus batch-endpoint volume.
type wireCounters struct {
	clientErrors atomic.Int64
	canceled     atomic.Int64
	deadline     atomic.Int64
	overflow     atomic.Int64
	batches      atomic.Int64
	batchRows    atomic.Int64
}

// WireStats is the snapshot of the node's wire-level counters, reported
// under "wire" in /v1/stats.
type WireStats struct {
	// ClientErrors counts 4xx responses on the localize/feedback wire:
	// malformed JSON, unknown models, wrong-width fingerprints.
	ClientErrors int64 `json:"client_errors"`
	// Canceled counts requests whose client disconnected before the engine
	// answered (499). Kept out of ClientErrors: a disconnect is not a
	// malformed request, and alerting on it as one masks real 4xx spikes.
	Canceled int64 `json:"canceled"`
	// DeadlineExceeded counts requests that hit their deadline in-engine (504).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Overflow counts bodies rejected by http.MaxBytesReader (413).
	Overflow int64 `json:"overflow"`
	// Batches and BatchRows count /v1/localize/batch calls and the rows
	// they carried.
	Batches   int64 `json:"batches"`
	BatchRows int64 `json:"batch_rows"`
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		ClientErrors:     c.clientErrors.Load(),
		Canceled:         c.canceled.Load(),
		DeadlineExceeded: c.deadline.Load(),
		Overflow:         c.overflow.Load(),
		Batches:          c.batches.Load(),
		BatchRows:        c.batchRows.Load(),
	}
}

// WireStats snapshots the node's wire-level counters.
func (n *Node) WireStats() WireStats { return n.wire.snapshot() }

// localizeStatus maps an engine (or context) error to its wire status.
// Context errors are the caller's lifecycle, not a malformed request: a
// disconnect maps to 499 and a deadline to 504, and wireError keeps both out
// of the client-error counter.
//
//calloc:noalloc
func localizeStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrMisroute), errors.Is(err, serve.ErrModelPanic):
		// A model fault, not a client error: 5xx so monitoring sees it
		// and clients may retry.
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// wireError writes err with its mapped status and advances the matching
// wire counter.
func (n *Node) wireError(w http.ResponseWriter, err error) {
	status := localizeStatus(err)
	switch {
	case status == statusClientClosedRequest:
		n.wire.canceled.Add(1)
	case status == http.StatusGatewayTimeout:
		n.wire.deadline.Add(1)
	case status >= 400 && status < 500:
		n.wire.clientErrors.Add(1)
	}
	http.Error(w, err.Error(), status)
}

// readWireBody reads the bounded request body into the pooled buffer and
// accounts the failure modes; on !ok the response has been written.
func (n *Node) readWireBody(w http.ResponseWriter, r *http.Request, b *wireBuf, limit int64) bool {
	body, overflow, ok := wire.ReadBody(w, r, b.body, limit)
	b.body = body
	if !ok {
		if overflow {
			n.wire.overflow.Add(1)
		} else {
			n.wire.clientErrors.Add(1)
		}
	}
	return ok
}

// jsonContentType is the shared Content-Type value the hot path assigns into
// response headers directly — Header.Set allocates a fresh one-element slice
// per call, which at wire rates is a measurable share of the per-request
// allocations. net/http only reads the slice, so sharing it is safe.
var jsonContentType = []string{"application/json"}

// writeWire sends a hand-built JSON body as a single write. Small bodies
// leave Content-Length to net/http (the handler returns before the 2KB
// chunking buffer flushes, so the server frames the response itself without
// the Itoa+Set allocations); larger ones set it explicitly to stay
// un-chunked. A short or failed write is logged — the client is gone, but
// the operator should see wire errors that would otherwise vanish.
func (n *Node) writeWire(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(body) >= 2048 {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	if nw, err := w.Write(body); err != nil {
		n.cfg.Logf("node: response write failed after %d/%d bytes: %v", nw, len(body), err)
	} else if nw < len(body) {
		n.cfg.Logf("node: short response write: %d/%d bytes", nw, len(body))
	}
}

// appendResult emits one localize result as the wire object
// {"rp":..,"floor":..,"backend":..,"version":..}.
//
//calloc:noalloc
func appendResult(dst []byte, res serve.Result) []byte {
	dst = append(dst, `{"rp":`...)
	dst = strconv.AppendInt(dst, int64(res.Class), 10)
	dst = append(dst, `,"floor":`...)
	dst = strconv.AppendInt(dst, int64(res.Floor), 10)
	dst = append(dst, `,"backend":`...)
	dst = wire.AppendString(dst, res.Backend)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, res.Version, 10)
	return append(dst, '}')
}

// appendRowError emits a failed batch row as {"error":..,"status":..} —
// the status the row would have carried had it been a single request.
//
//calloc:noalloc
func appendRowError(dst []byte, err error) []byte {
	dst = append(dst, `{"error":`...)
	dst = wire.AppendString(dst, err.Error())
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(localizeStatus(err)), 10)
	return append(dst, '}')
}
