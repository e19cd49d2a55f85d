package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/genset"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/ring"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
)

// comStore pairs a compartment's durable store with its enclave and the
// snapshot-generation bookkeeping. lastEpoch is touched only by the
// dispatcher thread serving the compartment (or the single dispatcher in
// SingleThread mode), so it needs no lock; snapBusy is shared with the
// background snapshot writer.
type comStore struct {
	st  *store.Store
	enc *tee.Enclave
	// lastEpoch is the newest epoch whose snapshot durably landed; it is
	// atomic because the background writer advances it on success while
	// the dispatcher reads it.
	lastEpoch atomic.Uint64
	snapBusy  atomic.Bool
	// wg joins the in-flight background snapshot write: a store handoff
	// (Replica.Stop/Crash followed by a restart) must not leave the old
	// writer racing the new store for the directory.
	wg sync.WaitGroup
}

// drain waits for an in-flight background snapshot write to finish.
func (cs *comStore) drain() { cs.wg.Wait() }

// persistRun appends a run of same-compartment ecall payloads to the WAL
// before they are delivered. Append errors need no handling here: the
// store's failure is sticky, so the pre-route Sync in cross sees it
// and suppresses the outputs — a record lost with no output escaping is
// indistinguishable from a crash just before it, and the recovery path
// closes any such gap through peer state transfer. Environment queries are
// skipped: they mutate no replayable state, and persisting one per
// detection period would grow an idle cluster's WAL forever. So is
// read-lease traffic (see routeRow).
func (cs *comStore) persistRun(run []ecall) {
	for k := range run {
		p := run[k].payload
		if isQuery(p) {
			continue
		}
		if len(p) > 1 && p[0] == compartment.EcallMessage && inboundRoutes[p[1]].lease {
			continue
		}
		_, _ = cs.st.Append(p)
	}
}

// maybeSnapshot seals a state snapshot when the compartment's stable
// checkpoint advanced since the last one — tying snapshot cadence (and
// therefore WAL garbage collection) to the protocol's checkpoints. Only
// the state export runs on the dispatcher; the file write and its fsyncs
// happen on a background goroutine with the coverage index captured now,
// so checkpoint-sized I/O never stalls agreement traffic. One write is in
// flight at a time; a skipped epoch retries at the next advance.
func (cs *comStore) maybeSnapshot() {
	ep := cs.enc.StateEpoch()
	if ep <= cs.lastEpoch.Load() || cs.snapBusy.Load() {
		return
	}
	sealed, err := cs.enc.SealState()
	if err != nil {
		return // e.g. crashed enclave: no snapshot, WAL keeps growing
	}
	index := cs.st.Stats().NextIndex - 1
	cs.snapBusy.Store(true)
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		// The epoch advances only when the snapshot durably landed, so a
		// failed write is retried at the next checkpoint advance rather
		// than silently skipped (which would leave the WAL growing
		// without GC until the crash after next).
		if cs.st.WriteSnapshotAt(sealed, index) == nil {
			cs.lastEpoch.Store(ep)
		}
		cs.snapBusy.Store(false)
	}()
}

// pooledBuf is a reference-counted ecall payload buffer recycled through a
// sync.Pool. Messages duplicated into several compartments' input logs
// (§3.2) share one buffer with one reference per queue; the enclave
// runtime copies payloads across the trusted boundary (and charges for
// it), so the untrusted-side buffer is dead as soon as its last ecall has
// been invoked and can be reused without another allocation — the pooled
// zero-copy path of the staged pipeline.
type pooledBuf struct {
	buf  []byte
	refs atomic.Int32
}

var bufPool = sync.Pool{New: func() any { return new(pooledBuf) }}

// newPooledBuf takes a buffer from the pool with refs references and at
// least sizeHint capacity, length zero.
func newPooledBuf(refs int32, sizeHint int) *pooledBuf {
	pb := bufPool.Get().(*pooledBuf)
	pb.refs.Store(refs)
	if cap(pb.buf) < sizeHint {
		pb.buf = make([]byte, 0, sizeHint)
	} else {
		pb.buf = pb.buf[:0]
	}
	return pb
}

// release drops one reference, returning the buffer to the pool when the
// last holder is done. Oversized one-off buffers (state snapshots) are let
// go to the GC instead so the pool's steady-state footprint stays small.
func (pb *pooledBuf) release() {
	if pb.refs.Add(-1) == 0 {
		if cap(pb.buf) <= 1<<16 {
			bufPool.Put(pb)
		}
	}
}

// frameMessage frames encoded wire-message bytes as an EcallMessage
// payload in a pooled buffer carrying refs references (one per
// destination queue).
func frameMessage(data []byte, refs int32) *pooledBuf {
	pb := newPooledBuf(refs, len(data)+1)
	pb.buf = append(pb.buf, compartment.EcallMessage)
	pb.buf = append(pb.buf, data...)
	return pb
}

// frameBatch frames a request batch as an EcallBatch payload (single
// destination: the Preparation compartment).
func frameBatch(b *messages.Batch) *pooledBuf {
	pb := newPooledBuf(1, 64)
	pb.buf = append(pb.buf, compartment.EcallBatch)
	pb.buf = messages.AppendBatch(pb.buf, b)
	return pb
}

// ecall is one queued invocation of a local enclave.
type ecall struct {
	role    crypto.Role
	payload []byte
	pb      *pooledBuf // non-nil when payload is pooled; released post-ecall
}

// release returns a pooled payload to its pool once all sharers are done.
func (e *ecall) release() {
	if e.pb != nil {
		e.pb.release()
	}
}

// queue is an unbounded FIFO of ecalls over a ring buffer (O(1) push and
// pop, backing array reused at the high-water depth). Unboundedness
// removes any possibility of routing deadlock between enclave dispatchers
// (local outputs always enqueue without blocking); memory stays bounded by
// the protocol's watermark window in practice.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ring.Buffer[ecall]
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(e ecall) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		e.release()
		return
	}
	q.items.Push(e)
	q.cond.Signal()
}

// drain blocks until an item is available or the queue closes (a closed
// queue still drains its backlog), then removes up to max items, appending
// them to dst so the dispatcher reuses one scratch slice across rounds.
func (q *queue) drain(dst []ecall, max int) ([]ecall, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.Len() == 0 {
		return dst, false
	}
	return q.items.PopN(dst, max), true
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

func (q *queue) reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items.Reset()
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// dedup is a bounded generational filter over raw inbound message bytes:
// byte-identical retransmits of agreement messages are dropped in the
// untrusted environment before they pay for an enclave crossing. It is
// untrusted-side, so a wrong drop is indistinguishable from a network drop
// (liveness only, never safety); rotation — on fill or on the failure
// detector's clock — guarantees a deliberate retransmission (e.g. a stuck
// replica re-sending its ViewChange) passes through again after at most
// two detection periods (an untouched entry survives one rotation in the
// older generation). Frames are keyed by a 64-bit hash under a seed drawn
// per filter: a collision is one more such drop, and a remote sender cannot
// aim one without the seed.
type dedup struct {
	seed maphash.Seed
	mu   sync.Mutex
	set  *genset.Set[uint64]
}

func newDedup(entries int) *dedup {
	return &dedup{seed: maphash.MakeSeed(), set: genset.New[uint64](entries)}
}

// seen reports whether frame was recently submitted, recording it if not.
// Found entries are deliberately not re-armed: a suppressed resend must
// not extend its own suppression window.
func (d *dedup) seen(frame []byte) bool {
	sum := maphash.Bytes(d.seed, frame)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.set.Contains(sum) {
		return true
	}
	d.set.Add(sum)
	return false
}

// rotate ages the filter (called from the broker's tick).
func (d *dedup) rotate() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.set.Rotate()
}

// persistBlock is the "fs.write" ocall target: it stores a sealed
// blockchain block in untrusted memory (standing in for protected-file I/O).
func (b *broker) persistBlock(data []byte) ([]byte, error) {
	b.blocksMu.Lock()
	defer b.blocksMu.Unlock()
	b.blocks = append(b.blocks, data)
	return nil, nil
}

// persistedBlocks returns how many sealed blocks were written.
func (b *broker) persistedBlocks() int {
	b.blocksMu.Lock()
	defer b.blocksMu.Unlock()
	return len(b.blocks)
}
