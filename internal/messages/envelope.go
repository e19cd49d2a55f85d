package messages

import (
	"fmt"
)

// Marshal encodes m into a self-describing envelope: one type byte followed
// by the message body.
func Marshal(m Message) []byte {
	// Encoded in a pooled buffer and copied out at its exact size: one
	// allocation per message however often the encoding had to grow.
	e := GetEncoder()
	e.U8(uint8(m.MsgType()))
	m.encodeBody(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	PutEncoder(e)
	return out
}

// AppendMessage appends the Marshal encoding of m to dst and returns the
// extended slice — the allocation-free sibling of Marshal for pooled
// buffers.
func AppendMessage(dst []byte, m Message) []byte {
	e := Encoder{buf: dst}
	e.U8(uint8(m.MsgType()))
	m.encodeBody(&e)
	return e.buf
}

// Unmarshal decodes an envelope produced by Marshal. It returns a freshly
// allocated message of the concrete type.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty envelope", ErrDecode)
	}
	d := NewDecoder(data)
	m, err := newMessage(Type(d.U8()))
	if err != nil {
		return nil, err
	}
	m.decodeBody(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", m.MsgType(), err)
	}
	return m, nil
}

// newMessage allocates the zero value for a wire type.
func newMessage(t Type) (Message, error) {
	switch t {
	case TRequest:
		return &Request{}, nil
	case TPrePrepare:
		return &PrePrepare{}, nil
	case TPrepare:
		return &Prepare{}, nil
	case TCommit:
		return &Commit{}, nil
	case TReply:
		return &Reply{}, nil
	case TCheckpoint:
		return &Checkpoint{}, nil
	case TViewChange:
		return &ViewChange{}, nil
	case TNewView:
		return &NewView{}, nil
	case TAttestRequest:
		return &AttestRequest{}, nil
	case TAttestQuote:
		return &AttestQuote{}, nil
	case TProvisionKey:
		return &ProvisionKey{}, nil
	case TStateRequest:
		return &StateRequest{}, nil
	case TStateReply:
		return &StateReply{}, nil
	case TSuspect:
		return &Suspect{}, nil
	case TBatchFetch:
		return &BatchFetch{}, nil
	case TBatchReply:
		return &BatchReply{}, nil
	case TStateProbe:
		return &StateProbe{}, nil
	case TLeaseGrant:
		return &LeaseGrant{}, nil
	case TReadRequest:
		return &ReadRequest{}, nil
	case TReadReply:
		return &ReadReply{}, nil
	case TLeaseAck:
		return &LeaseAck{}, nil
	case TReadIndex:
		return &ReadIndex{}, nil
	case TReadIndexReply:
		return &ReadIndexReply{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", ErrDecode, uint8(t))
	}
}
