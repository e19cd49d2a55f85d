package pbft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/ring"
	"github.com/splitbft/splitbft/internal/transport"
)

// event is one unit of work for the protocol loop: a verified inbound
// message or an internal timer tick.
type event struct {
	from transport.Endpoint
	msg  messages.Message
}

// Replica is one PBFT replica. Create with NewReplica, attach a transport
// connection, then Start. All protocol state is owned by a single event
// loop goroutine; public getters read atomics.
type Replica struct {
	cfg  Config
	ver  *messages.Verifier
	conn transport.Conn

	rawCh  chan rawMsg
	events chan event
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	// Protocol state: owned by the run loop.
	view         uint64
	nextSeq      uint64 // next sequence the primary assigns
	log          *inLog
	lowWatermark uint64
	stableCert   messages.CheckpointCert
	snapshots    map[uint64][]byte
	lastExec     uint64
	clients      clientTable
	// committedBatches holds batches committed but not yet executed,
	// keyed by sequence number.
	committedBatches map[uint64]*messages.Batch
	committedNull    map[uint64]bool
	// batchStore caches request bodies by batch digest so batches
	// re-proposed after a view change can still execute (bodies are
	// stripped from certificates).
	batchStore map[crypto.Digest]*messages.Batch

	// Batching. pendingReqs is a ring so cutting a batch never re-copies
	// the remainder (the old O(n) slice-shift pinned freed memory and went
	// quadratic under load).
	pendingReqs   ring.Buffer[messages.Request]
	pendingDigest map[digestKey]bool
	batchSince    time.Time

	// View-change machinery.
	inViewChange bool
	vcTarget     uint64
	vcBackoff    uint
	vcDeadline   time.Time
	myVC         *messages.ViewChange
	lastNewView  *messages.NewView
	viewChanges  map[uint64]map[uint32]*messages.ViewChange
	// pending holds every request this replica has seen but not executed,
	// with its body, so that a replica which becomes primary proposes what
	// it saw as a backup instead of waiting for the client to retransmit.
	// Its arrival stamps drive the failure detector.
	pending map[digestKey]pendingReq
	// early holds agreement messages of the view being entered that arrived
	// before its NewView (see holdEarly).
	early        []messages.Message
	lastProgress time.Time

	// Metrics (atomics, readable from any goroutine).
	mView     atomic.Uint64
	mExecuted atomic.Uint64
	mLastExec atomic.Uint64
	mDropped  atomic.Uint64
	mStable   atomic.Uint64
	mInVC     atomic.Bool
}

type rawMsg struct {
	from transport.Endpoint
	data []byte
}

// NewReplica builds a replica from cfg.
func NewReplica(cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ver, err := cfg.verifier()
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:              cfg,
		ver:              ver,
		rawCh:            make(chan rawMsg, 8192),
		events:           make(chan event, 8192),
		stop:             make(chan struct{}),
		log:              newInLog(),
		snapshots:        make(map[uint64][]byte),
		clients:          make(clientTable),
		committedBatches: make(map[uint64]*messages.Batch),
		committedNull:    make(map[uint64]bool),
		batchStore:       make(map[crypto.Digest]*messages.Batch),
		pendingDigest:    make(map[digestKey]bool),
		viewChanges:      make(map[uint64]map[uint32]*messages.ViewChange),
		pending:          make(map[digestKey]pendingReq),
		lastProgress:     time.Now(),
	}
	// Genesis snapshot so the zero checkpoint certificate is restorable.
	r.snapshots[0] = cfg.App.Snapshot()
	return r, nil
}

// Handler returns the transport handler feeding this replica. Attach it
// when joining the network, before Start.
func (r *Replica) Handler() transport.Handler {
	return func(from transport.Endpoint, data []byte) {
		// data is the transport's once this returns; the verify workers get
		// a copy.
		data = append([]byte(nil), data...)
		select {
		case r.rawCh <- rawMsg{from: from, data: data}:
		case <-r.stop:
		}
	}
}

// Start begins processing with the given connection.
func (r *Replica) Start(conn transport.Conn) {
	r.conn = conn
	for i := 0; i < verifyWorkers; i++ {
		r.wg.Add(1)
		go r.verifyWorker()
	}
	r.wg.Add(1)
	go r.run()
}

// Stop terminates the replica. It is idempotent.
func (r *Replica) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// View returns the replica's current view.
func (r *Replica) View() uint64 { return r.mView.Load() }

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() uint64 { return r.mLastExec.Load() }

// ExecutedOps returns the total number of client operations executed.
func (r *Replica) ExecutedOps() uint64 { return r.mExecuted.Load() }

// DroppedMsgs returns how many inbound messages failed verification.
func (r *Replica) DroppedMsgs() uint64 { return r.mDropped.Load() }

// StableCheckpoint returns the sequence number of the latest stable
// checkpoint (the low watermark).
func (r *Replica) StableCheckpoint() uint64 { return r.mStable.Load() }

// InViewChange reports whether the replica is between a ViewChange and the
// corresponding NewView.
func (r *Replica) InViewChange() bool { return r.mInVC.Load() }

// primary reports the primary of view v.
func (r *Replica) primary(v uint64) uint32 { return uint32(v % uint64(r.cfg.N)) }

// isPrimary reports whether this replica leads view v.
func (r *Replica) isPrimary(v uint64) bool { return r.primary(v) == r.cfg.ID }

// verifyWorker authenticates inbound messages off the protocol loop
// (parallelized authentication, as in the paper's baseline).
func (r *Replica) verifyWorker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case raw := <-r.rawCh:
			m, err := messages.Unmarshal(raw.data)
			if err != nil {
				r.mDropped.Add(1)
				continue
			}
			if err := r.verify(raw.from, m); err != nil {
				r.mDropped.Add(1)
				continue
			}
			select {
			case r.events <- event{from: raw.from, msg: m}:
			case <-r.stop:
				return
			}
		}
	}
}

// verify authenticates one message by type. View/watermark filtering
// happens later in the protocol loop; this is pure authentication.
func (r *Replica) verify(from transport.Endpoint, m messages.Message) error {
	switch msg := m.(type) {
	case *messages.Request:
		return r.verifyRequest(msg)
	case *messages.PrePrepare:
		return r.ver.VerifyPrePrepare(msg, true)
	case *messages.Prepare:
		return r.ver.VerifyPrepare(msg)
	case *messages.Commit:
		return r.ver.VerifyCommit(msg)
	case *messages.Checkpoint:
		return r.ver.VerifyCheckpoint(msg)
	case *messages.ViewChange:
		return r.ver.VerifyViewChange(msg)
	case *messages.NewView:
		return r.ver.VerifyNewView(msg)
	case *messages.StateRequest:
		return nil // contents are harmless; rate limiting is out of scope
	case *messages.StateReply:
		return r.ver.VerifyCheckpointCert(&msg.Cert)
	default:
		return fmt.Errorf("pbft: unexpected message type %v", m.MsgType())
	}
}

// verifyRequest checks the client's MAC for this replica.
func (r *Replica) verifyRequest(req *messages.Request) error {
	client := crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient}
	return r.cfg.MACs.VerifyIndexed(req.AuthenticatedBytes(), req.Auth, int(r.cfg.ID), client)
}

// tickInterval is the protocol loop's coarse timer resolution.
func (r *Replica) tickInterval() time.Duration {
	d := r.cfg.BatchTimeout / 2
	if d <= 0 || d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// run is the single-threaded protocol loop.
func (r *Replica) run() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.tickInterval())
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.onTick()
		case ev := <-r.events:
			r.dispatch(ev)
		}
	}
}

func (r *Replica) dispatch(ev event) {
	switch msg := ev.msg.(type) {
	case *messages.Request:
		r.onRequest(msg)
	case *messages.PrePrepare:
		r.onPrePrepare(msg)
	case *messages.Prepare:
		r.onPrepare(msg)
	case *messages.Commit:
		r.onCommit(msg)
	case *messages.Checkpoint:
		r.onCheckpoint(msg)
	case *messages.ViewChange:
		r.onViewChange(msg)
	case *messages.NewView:
		r.onNewView(msg)
	case *messages.StateRequest:
		r.onStateRequest(msg)
	case *messages.StateReply:
		r.onStateReply(msg)
	}
}

// onTick drives batch cutting and failure detection.
func (r *Replica) onTick() {
	now := time.Now()
	// Cut a batch on timeout.
	if r.isPrimary(r.view) && !r.inViewChange && r.pendingReqs.Len() > 0 &&
		now.Sub(r.batchSince) >= r.cfg.BatchTimeout {
		r.cutBatch()
	}
	// Suspect the primary when a pending request has seen no progress.
	r.checkRequestTimeouts(now)
}

// sign signs with the replica key.
func (r *Replica) sign(b []byte) []byte { return r.cfg.Key.Sign(b) }

// broadcast marshals and sends to all other replicas.
func (r *Replica) broadcast(m messages.Message) {
	if r.conn == nil {
		return
	}
	_ = r.conn.BroadcastReplicas(messages.Marshal(m))
}

// sendReplica marshals and sends to one replica.
func (r *Replica) sendReplica(id uint32, m messages.Message) {
	if r.conn == nil || id == r.cfg.ID {
		return
	}
	_ = r.conn.Send(transport.ReplicaEndpoint(id), messages.Marshal(m))
}

// sendClient marshals and sends to a client.
func (r *Replica) sendClient(clientID uint32, m messages.Message) {
	if r.conn == nil {
		return
	}
	_ = r.conn.Send(transport.ClientEndpoint(clientID), messages.Marshal(m))
}

// inWindow reports whether seq falls in the active watermark window.
func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.lowWatermark && seq <= r.lowWatermark+r.cfg.WatermarkWindow
}

// progressMade resets the failure-detection clock.
func (r *Replica) progressMade() { r.lastProgress = time.Now() }
