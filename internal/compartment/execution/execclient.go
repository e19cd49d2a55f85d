package execution

import (
	"slices"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/messages"
)

// execReplyWindow is the span of timestamps below a client's newest executed
// one that Execution tells apart, and so the most reply bodies it holds per
// client; it must exceed the maximum outstanding requests per client (40 in
// the paper's batched configuration). It is the 128 bits of skipWindow.
const execReplyWindow = 128

// skipWindow is a client's executed map over (maxExecuted−execReplyWindow,
// maxExecuted]: bit i%64 of word i/64 is set when maxExecuted−i executed.
type skipWindow [2]uint64

// has reports whether bit i is set; i must be below execReplyWindow.
func (w *skipWindow) has(i uint64) bool { return w[i/64]&(1<<(i%64)) != 0 }

// shift moves the window's top up by s timestamps: bit i becomes bit i+s,
// and bits pushed past the window drop out. Go shifts of 64 or more bits
// give zero, which covers every s.
func (w *skipWindow) shift(s uint64) {
	w[1] = w[1]<<s | w[0]>>(64-s) | w[0]<<(s-64)
	w[0] <<= s
}

// execClient is a client's exactly-once record inside the Execution enclave:
// which of its timestamps executed, and the replies to those still inside
// the window. Batches execute a client's outstanding requests out of order,
// so a single highest-timestamp check would silently drop requests. Every
// timestamp at or below maxExecuted−execReplyWindow counts as executed.
// replies holds a body only for a timestamp whose window bit is set; one
// merged in by state transfer has none, and a duplicate of it is skipped
// silently.
type execClient struct {
	maxExecuted uint64
	window      skipWindow
	replies     map[uint64]*messages.Reply
}

// executed reports whether ts was already executed, returning the cached
// reply when one is held. A client with no record executed nothing.
func (c *execClient) executed(ts uint64) (*messages.Reply, bool) {
	if c == nil || ts > c.maxExecuted {
		return nil, false
	}
	if i := c.maxExecuted - ts; i < execReplyWindow && !c.window.has(i) {
		return nil, false
	}
	return c.replies[ts], true
}

// record marks ts executed with reply rep.
func (c *execClient) record(ts uint64, rep *messages.Reply) {
	c.advance(ts)
	i := c.maxExecuted - ts
	if i >= execReplyWindow {
		return // below the window: counted executed already
	}
	c.window[i/64] |= 1 << (i % 64)
	if c.replies == nil {
		c.replies = make(map[uint64]*messages.Reply)
	}
	c.replies[ts] = rep
}

// merge marks executed every timestamp a transferred window topped at
// maxExecuted marks. Bodies already held are kept for resends.
func (c *execClient) merge(maxExecuted uint64, w skipWindow) {
	c.advance(maxExecuted)
	w.shift(c.maxExecuted - maxExecuted)
	c.window[0] |= w[0]
	c.window[1] |= w[1]
}

// advance raises the window's top to maxExecuted, dropping the bodies of
// the timestamps that leave the window.
func (c *execClient) advance(maxExecuted uint64) {
	if maxExecuted <= c.maxExecuted {
		return
	}
	s := maxExecuted - c.maxExecuted
	for i := uint64(execReplyWindow) - min(s, execReplyWindow); i < execReplyWindow; i++ {
		if c.window.has(i) {
			delete(c.replies, c.maxExecuted-i)
		}
	}
	c.window.shift(s)
	c.maxExecuted = maxExecuted
}

// snapshotState builds the checkpoint snapshot: every client's executed
// window (appendClientWindow, in ID order) wrapped around the application
// state. Checkpoint digests are compared across replicas, so the encoding is
// canonical: a function of what executed() answers and of the application
// state alone, never of reply bodies (they differ per replica in the Replica
// field and MAC). Without the windows a replica that catches up by state
// transfer would re-execute a client request that the primary re-ordered
// after a retransmit, forking its history from replicas whose records skip
// the duplicate.
//
// The buffer is sized for the windows and the application encodes itself
// into it in place (app.AppendSnapshot): one allocation the size of the
// snapshot, no sort of the application's keys.
func (e *Compartment) snapshotState() []byte {
	ids := make([]uint32, 0, len(e.clients))
	for id := range e.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	enc := messages.NewEncoder(4 + len(ids)*clientSkipSize + 4)
	enc.U32(uint32(len(ids)))
	for _, id := range ids {
		appendClientWindow(enc, id, e.clients[id])
	}
	enc.VarAppend(func(dst []byte) []byte { return app.AppendSnapshot(dst, e.app) })
	return enc.Bytes()
}

// clientSkipSize is the encoded size of one client's window.
const clientSkipSize = 4 + 8 + execReplyWindow/8

// appendClientWindow encodes a client's executed window as the checkpoint
// snapshot, state transfer and the sealed export all carry it: its ID,
// maxExecuted and the window's words.
func appendClientWindow(enc *messages.Encoder, id uint32, c *execClient) {
	enc.U32(id)
	enc.U64(c.maxExecuted)
	enc.U64(c.window[0])
	enc.U64(c.window[1])
}

// decodeClientWindow reads what appendClientWindow wrote, as a record that
// holds no reply bodies.
func decodeClientWindow(d *messages.Decoder) (uint32, *execClient) {
	id := d.U32()
	c := &execClient{maxExecuted: d.U64()}
	c.window[0], c.window[1] = d.U64(), d.U64()
	return id, c
}

// restoreState installs a checkpoint snapshot produced by snapshotState:
// the application state plus every client's executed window, merged into
// (never replacing) the live records. Every restored timestamp was executed
// in the history the snapshot covers, so skipping it can only be correct;
// held reply bodies stay for resends. A duplicate of a timestamp with no
// body is skipped silently, which is safe: ordering already happened, and
// live replicas answer the retransmit from their records.
func (e *Compartment) restoreState(snap []byte) error {
	d := messages.NewDecoder(snap)
	n := d.Count(1 << 20)
	restored := make(map[uint32]*execClient, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id, c := decodeClientWindow(d)
		restored[id] = c
	}
	appState := d.VarBytes()
	if err := d.Finish(); err != nil {
		return err
	}
	if err := e.app.Restore(appState); err != nil {
		return err
	}
	for id, c := range restored {
		cl, ok := e.clients[id]
		if !ok {
			cl = &execClient{}
			e.clients[id] = cl
		}
		cl.merge(c.maxExecuted, c.window)
	}
	return nil
}
