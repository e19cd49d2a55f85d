package app

import (
	"fmt"
	"sync"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// DefaultBlockSize matches the paper's blockchain configuration: "creates
// blocks of five messages in the execution enclave" (§6).
const DefaultBlockSize = 5

// PersistFunc writes a sealed block to untrusted storage. In SplitBFT it is
// wired to an ocall so the write pays the enclave-transition cost; the data
// is sealed (encrypted) before it leaves the enclave.
type PersistFunc func(sealedBlock []byte) error

// Tx is one ledger transaction: the ordered client operation.
type Tx struct {
	ClientID uint32
	Op       []byte
}

// BlockHeader summarizes a committed block for chain verification.
type BlockHeader struct {
	Index    uint64
	PrevHash crypto.Digest
	TxRoot   crypto.Digest
	Hash     crypto.Digest
}

// Blockchain is the distributed-ledger application from the paper's second
// use case: ordered operations accumulate into blocks of BlockSize
// transactions; each full block is hashed into the chain and persisted via
// the PersistFunc (one ocall per block, the overhead source the paper
// measures against the KVS).
type Blockchain struct {
	blockSize int
	persist   PersistFunc

	mu      sync.RWMutex
	pending []Tx
	headers []BlockHeader
	tip     crypto.Digest
}

// NewBlockchain creates a ledger producing blocks of blockSize
// transactions. persist may be nil (blocks are then kept in memory only).
func NewBlockchain(blockSize int, persist PersistFunc) *Blockchain {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Blockchain{blockSize: blockSize, persist: persist}
}

// SetPersist installs the block writer after construction; the Execution
// compartment wires the ocall here once the enclave is launched.
func (b *Blockchain) SetPersist(p PersistFunc) { b.persist = p }

func txDigest(txs []Tx) crypto.Digest {
	e := messages.NewEncoder(64 * len(txs))
	for _, tx := range txs {
		e.U32(tx.ClientID)
		e.VarBytes(tx.Op)
	}
	return crypto.HashData(e.Bytes())
}

func headerHash(index uint64, prev, root crypto.Digest) crypto.Digest {
	e := messages.NewEncoder(8 + 2*crypto.DigestSize)
	e.U64(index)
	e.Digest(prev)
	e.Digest(root)
	return crypto.HashData(e.Bytes())
}

// Execute implements Application: it appends the transaction, sealing a new
// block when blockSize transactions have accumulated.
func (b *Blockchain) Execute(clientID uint32, op []byte) []byte {
	if len(op) == 0 {
		return NoOpResult
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, Tx{ClientID: clientID, Op: append([]byte(nil), op...)})
	if len(b.pending) >= b.blockSize {
		b.sealBlock()
	}
	return []byte(fmt.Sprintf("ACK %d", uint64(len(b.headers))*uint64(b.blockSize)+uint64(len(b.pending))))
}

// sealBlock turns the pending transactions into a block, links it into the
// chain, and persists it.
func (b *Blockchain) sealBlock() {
	root := txDigest(b.pending)
	idx := uint64(len(b.headers))
	hash := headerHash(idx, b.tip, root)
	hdr := BlockHeader{Index: idx, PrevHash: b.tip, TxRoot: root, Hash: hash}
	b.headers = append(b.headers, hdr)
	b.tip = hash

	if b.persist != nil {
		e := messages.NewEncoder(256)
		e.U64(hdr.Index)
		e.Digest(hdr.PrevHash)
		e.Digest(hdr.TxRoot)
		e.U32(uint32(len(b.pending)))
		for _, tx := range b.pending {
			e.U32(tx.ClientID)
			e.VarBytes(tx.Op)
		}
		// Persistence failures must not diverge replicated state: the block
		// remains in the in-memory chain; the environment can retry
		// persistence out of band (it only affects durability/liveness).
		_ = b.persist(e.Bytes())
	}
	b.pending = nil
}

// Height returns the number of sealed blocks.
func (b *Blockchain) Height() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.headers)
}

// Headers returns a copy of the chain headers (test/inspection helper).
func (b *Blockchain) Headers() []BlockHeader {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]BlockHeader(nil), b.headers...)
}

// VerifyChain checks hash linkage of a header sequence. It reports the
// first broken link, or nil for a valid (possibly empty) chain.
func VerifyChain(headers []BlockHeader) error {
	prev := crypto.Digest{}
	for i, h := range headers {
		if h.Index != uint64(i) {
			return fmt.Errorf("block %d has index %d", i, h.Index)
		}
		if h.PrevHash != prev {
			return fmt.Errorf("block %d prev-hash mismatch", i)
		}
		if want := headerHash(h.Index, h.PrevHash, h.TxRoot); h.Hash != want {
			return fmt.Errorf("block %d hash mismatch", i)
		}
		prev = h.Hash
	}
	return nil
}

// Digest implements Application: the chain tip combined with the digest of
// pending transactions.
func (b *Blockchain) Digest() crypto.Digest {
	b.mu.RLock()
	defer b.mu.RUnlock()
	pend := txDigest(b.pending)
	return crypto.HashConcat(b.tip[:], pend[:])
}

// Snapshot implements Application: headers plus pending transactions.
func (b *Blockchain) Snapshot() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e := messages.NewEncoder(1024)
	e.U32(uint32(len(b.headers)))
	for _, h := range b.headers {
		e.U64(h.Index)
		e.Digest(h.PrevHash)
		e.Digest(h.TxRoot)
		e.Digest(h.Hash)
	}
	e.U32(uint32(len(b.pending)))
	for _, tx := range b.pending {
		e.U32(tx.ClientID)
		e.VarBytes(tx.Op)
	}
	return e.Bytes()
}

// Minimum encoded sizes of a snapshot's entries: a header is an index and
// three digests, a pending transaction a client ID and a length prefix.
const (
	headerWireSize = 8 + 3*len(crypto.Digest{})
	txWireSize     = 4 + 4
)

// Restore implements Application. A snapshot is peer- or disk-supplied, so
// the counts it declares size nothing beyond what its bytes can hold.
func (b *Blockchain) Restore(snapshot []byte) error {
	d := messages.NewDecoder(snapshot)
	nh := d.Count(1 << 24)
	headers := make([]BlockHeader, 0, min(nh, d.Remaining()/headerWireSize))
	for i := 0; i < nh && d.Err() == nil; i++ {
		h := BlockHeader{Index: d.U64(), PrevHash: d.Digest(), TxRoot: d.Digest(), Hash: d.Digest()}
		headers = append(headers, h)
	}
	np := d.Count(1 << 20)
	pending := make([]Tx, 0, min(np, d.Remaining()/txWireSize))
	for i := 0; i < np && d.Err() == nil; i++ {
		pending = append(pending, Tx{ClientID: d.U32(), Op: d.VarBytes()})
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("blockchain restore: %w", err)
	}
	if err := VerifyChain(headers); err != nil {
		return fmt.Errorf("blockchain restore: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.headers = headers
	b.pending = pending
	b.tip = crypto.Digest{}
	if len(headers) > 0 {
		b.tip = headers[len(headers)-1].Hash
	}
	return nil
}
