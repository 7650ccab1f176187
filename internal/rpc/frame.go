package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The TCP transport moves every message inside a length-prefixed,
// CRC32C-protected frame — the same integrity idiom the storage wire
// format (internal/wire) uses for record batches. The 16-byte header is:
//
//	offset 0  : magic 'V'
//	offset 1  : magic 'X'
//	offset 2  : protocol version (2)
//	offset 3  : frame type
//	offset 4  : stream/call id, uint32 big-endian
//	offset 8  : payload length, uint32 big-endian
//	offset 12 : CRC32C (Castagnoli) of the payload, uint32 big-endian
//
// A payload is not self-contained: it is the next segment of the
// connection's gob stream in that direction (tcp.go), so it decodes only
// after every earlier payload on the connection, in order. Version 1
// payloads each carried their own type descriptors; the two cannot be
// told apart by their bytes, so a version 1 peer is refused here, at the
// header.
//
// A corrupt header or a payload failing its checksum poisons the whole
// connection: framing is lost, so the reader tears the connection down
// and every in-flight call on it fails with ErrDropped.
const (
	frameMagic0    = 'V'
	frameMagic1    = 'X'
	frameVersion   = 2
	frameHeaderLen = 16

	// maxFramePayload bounds a single frame. It is deliberately far above
	// any message the engine produces (fragments rotate at tens of MB)
	// while still rejecting absurd lengths from corrupt or hostile peers
	// before any allocation happens; below it, readFrame commits memory
	// only as payload bytes arrive.
	maxFramePayload = 256 << 20
)

// frameType discriminates the multiplexed traffic on one connection.
type frameType uint8

const (
	ftUnaryReq     frameType = 1  // client→server: one unary call
	ftUnaryResp    frameType = 2  // server→client: its response
	ftUnaryCancel  frameType = 3  // client→server: caller's context ended
	ftStreamOpen   frameType = 4  // client→server: open a bi-di stream
	ftStreamAccept frameType = 5  // server→client: open outcome
	ftStreamMsg    frameType = 6  // client→server: stream data message
	ftStreamResp   frameType = 7  // server→client: stream data message
	ftWindow       frameType = 8  // either way: return flow-control credit
	ftCloseSend    frameType = 9  // client→server: no more requests
	ftReset        frameType = 10 // client→server: abort the stream
	ftHandlerDone  frameType = 11 // server→client: handler returned
)

var errBadFrame = errors.New("rpc: malformed frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded unit of the TCP protocol.
type frame struct {
	typ     frameType
	id      uint32
	payload []byte
}

// putFrameHeader completes the frame held in buf — frameHeaderLen
// reserved bytes followed by the payload — by filling the header in.
func putFrameHeader(buf []byte, typ frameType, id uint32) {
	payload := buf[frameHeaderLen:]
	buf[0] = frameMagic0
	buf[1] = frameMagic1
	buf[2] = frameVersion
	buf[3] = byte(typ)
	binary.BigEndian.PutUint32(buf[4:8], id)
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[12:16], crc32.Checksum(payload, crcTable))
}

// parseFrameHeader validates a 16-byte header and returns the frame type,
// id, payload length and expected payload CRC.
func parseFrameHeader(hdr []byte) (frameType, uint32, uint32, uint32, error) {
	if len(hdr) < frameHeaderLen {
		return 0, 0, 0, 0, fmt.Errorf("%w: short header (%d bytes)", errBadFrame, len(hdr))
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad magic %02x%02x", errBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] != frameVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: unsupported version %d", errBadFrame, hdr[2])
	}
	typ := frameType(hdr[3])
	if typ < ftUnaryReq || typ > ftHandlerDone {
		return 0, 0, 0, 0, fmt.Errorf("%w: unknown frame type %d", errBadFrame, typ)
	}
	id := binary.BigEndian.Uint32(hdr[4:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > maxFramePayload {
		return 0, 0, 0, 0, fmt.Errorf("%w: payload length %d exceeds limit", errBadFrame, length)
	}
	crc := binary.BigEndian.Uint32(hdr[12:16])
	return typ, id, length, crc, nil
}

// decodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. It is the pure-function core the
// connection reader and the fuzz target share: every validation the wire
// path performs happens here.
func decodeFrame(b []byte) (frame, int, error) {
	typ, id, length, crc, err := parseFrameHeader(b)
	if err != nil {
		return frame{}, 0, err
	}
	total := frameHeaderLen + int(length)
	if len(b) < total {
		return frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", errBadFrame, len(b)-frameHeaderLen, length)
	}
	payload := b[frameHeaderLen:total]
	if crc32.Checksum(payload, crcTable) != crc {
		return frame{}, 0, fmt.Errorf("%w: payload checksum mismatch", errBadFrame)
	}
	return frame{typ: typ, id: id, payload: payload}, total, nil
}

// payloadStep is the most readFrame allocates on a header's say-so. The
// length field is a claim by the peer, not data: a payload within the
// step gets one slice of exactly its size, a longer one a slice that
// doubles as its bytes actually arrive.
const payloadStep = 1 << 20

// readFrame reads and validates one frame from r. The payload is read
// into buf when it fits and into a fresh slice otherwise, so the frame is
// valid only until buf is next written. An io error mid-frame (including
// EOF after a partial header or payload) is returned as-is so the
// connection owner can map it onto the transport error contract.
func readFrame(r *bufio.Reader, buf []byte) (frame, error) {
	hdr, err := r.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	typ, id, length, crc, err := parseFrameHeader(hdr)
	if err != nil {
		return frame{}, err
	}
	r.Discard(frameHeaderLen) // cannot fail: Peek just returned these bytes
	n := int(length)
	if cap(buf) < n {
		buf = make([]byte, min(n, payloadStep))
	}
	payload := buf[:min(n, len(buf))]
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, fmt.Errorf("%w: partial frame: %v", errBadFrame, err)
		}
		if got = len(payload); got == n {
			break
		}
		payload = append(payload, make([]byte, min(n-got, got))...)
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return frame{}, fmt.Errorf("%w: payload checksum mismatch", errBadFrame)
	}
	return frame{typ: typ, id: id, payload: payload}, nil
}
