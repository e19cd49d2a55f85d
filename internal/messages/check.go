package messages

import (
	"encoding/binary"
	"fmt"

	"github.com/splitbft/splitbft/internal/crypto"
)

// Check reports whether Unmarshal would accept data, without building the
// message: known type, every fixed field present, every length prefix and
// count inside the frame and under the decoder's limits, no trailing bytes.
// It allocates nothing on a well-formed frame. The untrusted environment
// calls it on traffic it only forwards — it needs a verdict there, not a
// message; the enclaves still decode and authenticate what they receive.
//
// Each checkX below walks the same fields in the same order, through the
// same Decoder limits, as the decodeBody (or decode) beside which it would
// sit; FuzzCheckAgreesWithUnmarshal holds the two together.
func Check(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty envelope", ErrDecode)
	}
	d := Decoder{buf: data, off: 1}
	t := Type(data[0])
	switch t {
	case TRequest:
		checkRequest(&d)
	case TPrePrepare:
		checkPrePrepare(&d)
	case TPrepare, TCommit:
		checkVote(&d)
	case TReply:
		d.skip(replyFixed)
		d.skipVar()
		d.skip(crypto.MACSize)
	case TCheckpoint:
		checkCheckpoint(&d)
	case TViewChange:
		checkViewChange(&d)
	case TNewView:
		d.skip(8)
		for n := d.Count(maxVotes); n > 0 && d.err == nil; n-- {
			checkViewChange(&d)
		}
		checkCheckpointCert(&d)
		for n := d.Count(maxSlots); n > 0 && d.err == nil; n-- {
			checkPrePrepare(&d)
		}
		d.skip(4 + 8)
		d.skipVar()
	case TAttestRequest:
		d.skip(4 + 32 + 32)
	case TAttestQuote:
		d.skip(4 + 1 + crypto.DigestSize + 32 + 32)
		d.skipVar()
	case TProvisionKey:
		d.skip(4 + 4)
		d.skipVar()
	case TStateRequest, TStateProbe, TSuspect:
		d.skip(8 + 4)
	case TStateReply:
		checkCheckpointCert(&d)
		d.skipVar()
		d.skip(4)
	case TBatchFetch:
		d.skip(8 + crypto.DigestSize + 4)
	case TBatchReply:
		d.skip(8 + crypto.DigestSize)
		checkBatch(&d)
		d.skip(4)
	case TLeaseGrant:
		d.skip(4 + 4 + 8 + 8 + 1)
		d.skipVar()
	case TReadRequest:
		d.skip(4 + 8)
		d.skipVar()
		d.skip(crypto.MACSize)
	case TReadReply:
		d.skip(readReplyFixed)
		d.skipVar()
		d.skip(crypto.MACSize)
	case TLeaseAck, TReadIndex:
		d.skip(4 + 8 + 8)
		d.skipAuth(1)
	case TReadIndexReply:
		d.skip(4 + 4 + 8 + 8 + 8)
		d.skipAuth(1)
	default:
		return fmt.Errorf("%w: unknown message type %d", ErrDecode, uint8(t))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("decoding %s: %w", t, err)
	}
	return nil
}

// skip consumes n bytes of fixed-width fields.
func (d *Decoder) skip(n int) { d.take(n) }

// skipVar consumes what VarBytes would read.
func (d *Decoder) skipVar() {
	n := d.U32()
	if d.err != nil {
		return
	}
	if n > maxLen {
		d.fail("length %d exceeds limit %d", n, maxLen)
		return
	}
	d.take(int(n))
}

// skipAuth consumes what auth(maxMACs) would read.
func (d *Decoder) skipAuth(maxMACs int) {
	d.take(d.Count(maxMACs) * crypto.MACSize)
}

func checkRequest(d *Decoder) {
	d.skip(4 + 8)
	d.skipVar()
	d.skipAuth(maxVotes)
}

func checkBatch(d *Decoder) {
	for n := d.Count(maxSlots); n > 0 && d.err == nil; n-- {
		checkRequest(d)
	}
}

func checkPrePrepare(d *Decoder) {
	d.skip(8 + 8 + crypto.DigestSize + 4)
	checkBatch(d)
	d.skipVar()
	d.skipAuth(maxAuthMACs)
	d.skip(8)
	d.skipVar()
}

// checkVote walks a Prepare or a Commit; the two share one layout.
func checkVote(d *Decoder) {
	d.skip(8 + 8 + crypto.DigestSize + 4)
	d.skipVar()
	d.skipAuth(maxAuthMACs)
}

func checkCheckpoint(d *Decoder) {
	d.skip(8 + crypto.DigestSize + 4)
	d.skipVar()
	d.skipAuth(maxAuthMACs)
}

func checkCheckpointCert(d *Decoder) {
	d.skip(8 + crypto.DigestSize)
	for n := d.Count(maxVotes); n > 0 && d.err == nil; n-- {
		checkCheckpoint(d)
	}
	d.skip(4 + 1)
	d.skipVar()
}

func checkPrepareCert(d *Decoder) {
	checkPrePrepare(d)
	for n := d.Count(maxVotes); n > 0 && d.err == nil; n-- {
		checkVote(d)
	}
	d.skip(4)
	d.skipVar()
}

func checkViewChange(d *Decoder) {
	d.skip(8)
	checkCheckpointCert(d)
	for n := d.Count(maxSlots); n > 0 && d.err == nil; n-- {
		checkPrepareCert(d)
	}
	d.skip(4 + 8)
	d.skipVar()
}

// replyFixed is the width of a Reply's fixed header: View, ClientID,
// Timestamp, Replica.
const replyFixed = 8 + 4 + 8 + 4

// ReplyIdentity reads the request a marshalled Reply answers from its fixed
// header, for the environment's bookkeeping on replies it forwards; ok is
// false when data is not a Reply or is shorter than that header.
func ReplyIdentity(data []byte) (client uint32, ts uint64, ok bool) {
	if len(data) < 1+replyFixed || Type(data[0]) != TReply {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(data[9:]), binary.LittleEndian.Uint64(data[13:]), true
}

// readReplyFixed is the width of a ReadReply's fixed header: Replica,
// ClientID, Timestamp, View, OK.
const readReplyFixed = 4 + 4 + 8 + 8 + 1

// ReadReplyHeader reads, from its fixed header, the read a marshalled
// ReadReply answers and whether it was served, for the environment's
// bookkeeping on the replies it forwards; ok is false when data is not a
// ReadReply or is shorter than that header.
func ReadReplyHeader(data []byte) (client uint32, ts uint64, served, ok bool) {
	if len(data) < 1+readReplyFixed || Type(data[0]) != TReadReply {
		return 0, 0, false, false
	}
	return binary.LittleEndian.Uint32(data[5:]), binary.LittleEndian.Uint64(data[9:]), data[readReplyFixed] != 0, true
}
