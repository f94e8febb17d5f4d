package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
)

// ClusterOptions configures the coordinator's failure behaviour. The
// zero value of every field selects a production-sane default; tests
// tighten the deadlines to make injected faults bite quickly.
type ClusterOptions struct {
	// Addrs are the worker wire addresses to dial.
	Addrs []string
	// OpTimeout is the per-call deadline on every wire exchange (write
	// request + read response). A call that outlives it is treated as a
	// transport failure: the connection is redialed and the request
	// re-sent, then the worker is declared dead. 0 = 2 minutes; < 0
	// disables deadlines.
	OpTimeout time.Duration
	// DialRetries is how many redial-and-resend attempts a failed call
	// gets before the worker is declared dead (default 2). Re-sending is
	// safe: every wire op is idempotent (applies replace or merge
	// deterministically, loads merge by partition index, serves
	// re-register the same artifact).
	DialRetries int
	// RetryBackoff is the wait before the first redial, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// Fault, when non-nil, arms deterministic fault injection on every
	// outgoing frame — public test infrastructure, see FaultPlan.
	Fault *FaultPlan
}

const (
	defaultOpTimeout    = 2 * time.Minute
	defaultDialRetries  = 2
	defaultRetryBackoff = 50 * time.Millisecond
)

// WorkerFailure is the error a wire call returns when a worker has been
// declared dead: its per-call deadline expired or its connection tore,
// and the bounded redial-with-backoff budget is spent. The coordinator's
// fit loop catches it, reassigns the dead worker's partitions, and
// replays their lineage on the survivors.
type WorkerFailure struct {
	Worker int    // cluster index of the dead worker
	Addr   string // its wire address
	Err    error  // the final transport error
}

// Error formats the failure.
func (e *WorkerFailure) Error() string {
	return fmt.Sprintf("dist: worker %d (%s) failed: %v", e.Worker, e.Addr, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *WorkerFailure) Unwrap() error { return e.Err }

// ErrNoLiveWorkers means every worker in the cluster has been declared
// dead — there is nothing left to reassign lost partitions to.
var ErrNoLiveWorkers = errors.New("dist: no live workers")

// Cluster is the coordinator's handle on a set of workers: one
// connection per worker, requests serialized per connection and fanned
// out across workers in parallel. Partition placement is explicit: the
// owners table (built at Load, rewritten by Reassign after a death) maps
// every global partition index to the worker holding it, so datasets
// start round-robin (partition i on worker i mod W) and survive
// arbitrary reassignment.
type Cluster struct {
	conns []*workerConn

	opTimeout time.Duration
	retries   int
	backoff   time.Duration
	fault     *FaultPlan

	mu     sync.Mutex
	owner  []int // global partition index -> worker index
	failed []int // workers declared dead, not yet drained via TakeFailed
}

type workerConn struct {
	addr string
	down atomic.Bool
	mu   sync.Mutex // one in-flight request per connection
	conn net.Conn
	br   *bufio.Reader // conn's frame reader and writer, kept across redials
	bw   *bufio.Writer
}

func newWorkerConn(addr string, conn net.Conn) *workerConn {
	wc := &workerConn{addr: addr, conn: conn}
	wc.br, wc.bw = connBuffers(conn)
	return wc
}

// redial swaps in a fresh connection, dropping whatever the old one's
// buffers held.
func (wc *workerConn) redial(conn net.Conn) {
	wc.conn.Close()
	wc.conn = conn
	wc.br.Reset(conn)
	wc.bw.Reset(conn)
}

// Connect dials every worker address with default failure options and
// returns the cluster handle.
func Connect(addrs ...string) (*Cluster, error) {
	return ConnectWith(ClusterOptions{Addrs: addrs})
}

// ConnectWith dials every worker in opts.Addrs under the given failure
// options.
func ConnectWith(opts ClusterOptions) (*Cluster, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("dist: Connect needs at least one worker address")
	}
	c := &Cluster{
		opTimeout: opts.OpTimeout,
		retries:   opts.DialRetries,
		backoff:   opts.RetryBackoff,
		fault:     opts.Fault,
	}
	if c.opTimeout == 0 {
		c.opTimeout = defaultOpTimeout
	}
	if c.retries <= 0 {
		c.retries = defaultDialRetries
	}
	if c.backoff <= 0 {
		c.backoff = defaultRetryBackoff
	}
	for _, addr := range opts.Addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: dial worker %s: %w", addr, err)
		}
		c.conns = append(c.conns, newWorkerConn(addr, conn))
	}
	return c, nil
}

// Close drops all worker connections (workers keep running; their
// resident datasets are freed only by Free or worker shutdown).
func (c *Cluster) Close() error {
	for _, wc := range c.conns {
		if wc != nil && wc.conn != nil {
			wc.conn.Close()
		}
	}
	return nil
}

// Workers returns the number of workers the cluster was connected to,
// dead or alive.
func (c *Cluster) Workers() int { return len(c.conns) }

// LiveWorkers returns how many workers have not been declared dead.
func (c *Cluster) LiveWorkers() int { return len(c.live()) }

// Addrs returns the connected worker addresses in cluster order.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.conns))
	for i, wc := range c.conns {
		out[i] = wc.addr
	}
	return out
}

// live returns the indices of workers not declared dead, in cluster
// order.
func (c *Cluster) live() []int {
	var out []int
	for i, wc := range c.conns {
		if !wc.down.Load() {
			out = append(out, i)
		}
	}
	return out
}

// TakeFailed returns the workers declared dead since the last call and
// clears the list — the fit loop drains it before every dispatch, so a
// death detected on a best-effort call (a free whose error was
// swallowed) still triggers lineage recovery before the next real op.
func (c *Cluster) TakeFailed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.failed
	c.failed = nil
	return out
}

// declareDead marks worker i down and queues it for TakeFailed.
func (c *Cluster) declareDead(i int) {
	wc := c.conns[i]
	if wc.down.Swap(true) {
		return // already dead
	}
	c.mu.Lock()
	c.failed = append(c.failed, i)
	c.mu.Unlock()
}

// call sends one request to worker i and waits for its response, under
// the per-call deadline. A transport failure gets DialRetries
// redial-and-resend attempts with doubling backoff (every wire op is
// idempotent, so a re-send after a lost response is safe); when the
// budget is spent the worker is declared dead and a *WorkerFailure
// returned. Application-level errors from a live worker (resp.Err), and
// a request that cannot be encoded (ErrFrameEncode), come back as plain
// errors and never count against the worker.
func (c *Cluster) call(i int, req *request) (*response, error) {
	wc := c.conns[i]
	if wc.down.Load() {
		return nil, &WorkerFailure{Worker: i, Addr: wc.addr, Err: errors.New("worker already declared dead")}
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff << (attempt - 1))
			conn, err := net.DialTimeout("tcp", wc.addr, c.dialTimeout())
			if err != nil {
				lastErr = err
				continue
			}
			wc.redial(conn)
		}
		resp, err := c.exchange(i, wc, req)
		if err == nil {
			if resp.Err != "" {
				return nil, fmt.Errorf("dist: worker %s: %s", wc.addr, resp.Err)
			}
			return resp, nil
		}
		if errors.Is(err, ErrFrameEncode) {
			return nil, err
		}
		lastErr = err
	}
	wc.conn.Close()
	c.declareDead(i)
	return nil, &WorkerFailure{Worker: i, Addr: wc.addr, Err: lastErr}
}

func (c *Cluster) dialTimeout() time.Duration {
	if c.opTimeout > 0 {
		return c.opTimeout
	}
	return defaultOpTimeout
}

// exchange performs one framed request/response on the worker's current
// connection, applying the armed fault plan and the per-call deadline.
func (c *Cluster) exchange(i int, wc *workerConn, req *request) (*response, error) {
	// Deadline first, injection second: an injected delay longer than the
	// deadline then trips it exactly like a hung worker would.
	if c.opTimeout > 0 {
		wc.conn.SetDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // a failed deadline set surfaces as the I/O error
	}
	if c.fault != nil {
		switch act := c.fault.observe(i, req.Op); act.mode {
		case FaultDelay:
			time.Sleep(act.delay)
		case FaultDrop:
			return nil, &faultDropError{op: req.Op, worker: i}
		case FaultSever:
			wc.conn.Close()
			if c.fault.OnSever != nil {
				c.fault.OnSever(i)
			}
			// Fall through: the write below fails on the closed conn,
			// exactly as a mid-send connection loss would.
		}
	}
	if err := writeFrame(wc.bw, req); err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", wc.addr, err)
	}
	var resp response
	if err := readFrame(wc.br, &resp); err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", wc.addr, err)
	}
	if c.opTimeout > 0 {
		wc.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort clear
	}
	return &resp, nil
}

// broadcast sends make(i)'s request to every live worker concurrently
// and collects the responses (nil responses where make returned nil or
// the worker is dead). A *WorkerFailure wins over other errors so the
// caller's recovery loop sees the death first.
func (c *Cluster) broadcast(mk func(worker int) *request) ([]*response, error) {
	live := c.live()
	if len(live) == 0 {
		return nil, ErrNoLiveWorkers
	}
	resps := make([]*response, len(c.conns))
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for _, i := range live {
		req := mk(i)
		if req == nil {
			continue
		}
		wg.Add(1)
		go func(i int, req *request) {
			defer wg.Done()
			resps[i], errs[i] = c.call(i, req)
		}(i, req)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var wf *WorkerFailure
		if errors.As(err, &wf) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return resps, nil
}

// Ping checks liveness of every live worker and returns their replica
// HTTP addresses ("" for fit-only workers), in cluster order.
func (c *Cluster) Ping() ([]string, error) {
	resps, err := c.broadcast(func(int) *request { return &request{Op: opPing} })
	if err != nil {
		return nil, err
	}
	out := make([]string, len(resps))
	for i, r := range resps {
		if r != nil {
			out[i] = r.HTTPAddr
		}
	}
	return out, nil
}

// Load ships a collection to the cluster under name and (re)builds the
// owners table: partition i goes to the i-th live worker round-robin.
// Every live worker receives a load (possibly empty) so the dataset
// exists everywhere.
func (c *Cluster) Load(name string, coll *engine.Collection) error {
	live := c.live()
	if len(live) == 0 {
		return ErrNoLiveWorkers
	}
	c.mu.Lock()
	c.owner = make([]int, coll.NumPartitions())
	for i := range c.owner {
		c.owner[i] = live[i%len(live)]
	}
	owner := append([]int(nil), c.owner...)
	c.mu.Unlock()

	perWorker := make(map[int][]partition, len(live))
	for i := 0; i < coll.NumPartitions(); i++ {
		w := owner[i]
		perWorker[w] = append(perWorker[w], partition{Index: i, Records: coll.Partition(i)})
	}
	_, err := c.broadcast(func(i int) *request {
		return &request{Op: opLoad, Dataset: name, Parts: perWorker[i]}
	})
	return err
}

// LoadParts ships specific partitions of a dataset to one worker,
// merging them into whatever that worker already holds under name — the
// root step of a lineage replay.
func (c *Cluster) LoadParts(worker int, name string, parts []partition) error {
	only := make([]int, len(parts))
	for i, p := range parts {
		only[i] = p.Index
	}
	_, err := c.call(worker, &request{Op: opLoad, Dataset: name, Parts: parts, Only: only})
	return err
}

// Owners returns a copy of the partition owners table (nil before the
// first Load).
func (c *Cluster) Owners() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.owner...)
}

// Reassign redistributes a dead worker's partitions round-robin over
// the survivors and returns the lost partition indices grouped by their
// new owner. It is a pure bookkeeping step: the data itself is rebuilt
// by replaying lineage onto the new owners.
func (c *Cluster) Reassign(dead int) (map[int][]int, error) {
	live := c.live()
	if len(live) == 0 {
		return nil, ErrNoLiveWorkers
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	moved := make(map[int][]int)
	n := 0
	for p, w := range c.owner {
		if w != dead {
			continue
		}
		nw := live[n%len(live)]
		n++
		c.owner[p] = nw
		moved[nw] = append(moved[nw], p)
	}
	return moved, nil
}

// Apply runs op over src's partitions on every live worker, storing the
// result as dst. The operator crosses the wire via core.EncodeOp, so op
// must be persistable (a StateCodec or a registered named op) — the
// same contract artifacts impose.
func (c *Cluster) Apply(dst, src string, op core.TransformOp) error {
	kind, state, err := core.EncodeOp(op)
	if err != nil {
		return fmt.Errorf("dist: operator %q not shippable: %w", op.Name(), err)
	}
	return c.ApplyEncoded(dst, src, kind, state)
}

// ApplyEncoded is Apply with the operator already encoded — the form
// the fit loop uses so one encoding serves both the wire and the
// lineage record.
func (c *Cluster) ApplyEncoded(dst, src, kind string, state []byte) error {
	_, err := c.broadcast(func(int) *request {
		return &request{Op: opApply, Dataset: dst, Source: src, OpKind: kind, OpState: state}
	})
	return err
}

// ApplyParts replays the encoded operator over exactly the given global
// partitions of src on one worker, merging the results into dst there.
func (c *Cluster) ApplyParts(worker int, dst, src, kind string, state []byte, only []int) error {
	_, err := c.call(worker, &request{Op: opApply, Dataset: dst, Source: src, OpKind: kind, OpState: state, Only: only})
	return err
}

// Zip gather-joins a and b (feature concatenation, partition- and
// record-aligned) into dst on every live worker.
func (c *Cluster) Zip(dst, a, b string) error {
	_, err := c.broadcast(func(int) *request {
		return &request{Op: opZip, Dataset: dst, Source: a, Source2: b}
	})
	return err
}

// ZipParts replays the gather-join of a and b over exactly the given
// global partitions on one worker, merging into dst.
func (c *Cluster) ZipParts(worker int, dst, a, b string, only []int) error {
	_, err := c.call(worker, &request{Op: opZip, Dataset: dst, Source: a, Source2: b, Only: only})
	return err
}

// Fetch pulls a dataset's partitions back from every live worker and
// reassembles them in global partition order — the collection an
// estimator fit sees is bit-identical (same partition structure, same
// record order) to what a single-process fit would have seen.
func (c *Cluster) Fetch(name string) (*engine.Collection, error) {
	resps, err := c.broadcast(func(int) *request {
		return &request{Op: opFetch, Dataset: name}
	})
	if err != nil {
		return nil, err
	}
	var parts []partition
	for _, r := range resps {
		if r != nil {
			parts = append(parts, r.Parts...)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Index < parts[j].Index })
	ordered := make([][]any, len(parts))
	for i, p := range parts {
		if p.Index != i {
			return nil, fmt.Errorf("dist: fetch %q: missing partition %d", name, i)
		}
		ordered[i] = p.Records
	}
	return engine.FromPartitions(ordered), nil
}

// Free drops datasets on every live worker.
func (c *Cluster) Free(names ...string) error {
	for _, name := range names {
		if _, err := c.broadcast(func(int) *request {
			return &request{Op: opFree, Dataset: name}
		}); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns each live worker's resident datasets and record counts,
// in cluster order (nil entries for dead workers).
func (c *Cluster) Stats() ([]map[string]int, error) {
	resps, err := c.broadcast(func(int) *request { return &request{Op: opStats} })
	if err != nil {
		return nil, err
	}
	out := make([]map[string]int, len(resps))
	for i, r := range resps {
		if r != nil {
			out[i] = r.Counts
		}
	}
	return out, nil
}

// ServeRoute ships one registry artifact reference to every live
// worker's serving replica: each registers route (of the given
// registered kind) booted from the artifact, and the replica base URLs
// come back in cluster order — the router's replica set.
func (c *Cluster) ServeRoute(kind, route, ref string) ([]string, error) {
	resps, err := c.broadcast(func(int) *request {
		return &request{Op: opServe, Kind: kind, Route: route, Ref: ref}
	})
	if err != nil {
		return nil, err
	}
	addrs := make([]string, 0, len(resps))
	for _, r := range resps {
		if r != nil {
			addrs = append(addrs, r.HTTPAddr)
		}
	}
	return addrs, nil
}

// checkCtx returns the context's error, if any (the coordinator polls
// between remote dispatches, mirroring the engine's cancellation
// cadence).
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
