package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// appendFrame encodes one frame around a ready-made payload onto dst —
// what a connection does in place (writeFrame), for tests that need the
// bytes of a frame without a connection.
func appendFrame(dst []byte, typ frameType, id uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, payload...)
	putFrameHeader(dst[start:], typ, id)
	return dst
}

// FuzzDecodeFrame drives arbitrary bytes through the frame decoder — the
// exact validation path a TCP connection reader runs on hostile input.
// The decoder must never panic or over-read, and any frame it accepts
// must re-encode to the identical bytes (the format is canonical).
func FuzzDecodeFrame(f *testing.F) {
	valid := appendFrame(nil, ftUnaryReq, 42, []byte("hello vortex"))
	f.Add(valid)
	f.Add(valid[:frameHeaderLen-3]) // truncated header
	f.Add(valid[:len(valid)-4])     // truncated payload

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)

	oversize := appendFrame(nil, ftStreamMsg, 7, nil)
	binary.BigEndian.PutUint32(oversize[8:12], maxFramePayload+1)
	f.Add(oversize)

	f.Add(appendFrame(nil, ftWindow, 9, nil)) // zero-length payload

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'Z'
	f.Add(badMagic)

	for _, v := range []byte{1, 99} { // 1: stateless payloads, must be refused at the header
		badVersion := append([]byte(nil), valid...)
		badVersion[2] = v
		f.Add(badVersion)
	}

	badType := append([]byte(nil), valid...)
	badType[3] = 0
	f.Add(badType)

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := decodeFrame(b)
		if err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("decode error is not errBadFrame: %v", err)
			}
			return
		}
		if n < frameHeaderLen || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		if fr.typ < ftUnaryReq || fr.typ > ftHandlerDone {
			t.Fatalf("accepted unknown frame type %d", fr.typ)
		}
		if len(fr.payload) != n-frameHeaderLen {
			t.Fatalf("payload length %d inconsistent with consumed %d", len(fr.payload), n)
		}
		if crc32.Checksum(fr.payload, crcTable) != binary.BigEndian.Uint32(b[12:16]) {
			t.Fatal("accepted payload whose checksum does not match header")
		}
		if re := appendFrame(nil, fr.typ, fr.id, fr.payload); !bytes.Equal(re, b[:n]) {
			t.Fatal("accepted frame does not re-encode canonically")
		}
	})
}
