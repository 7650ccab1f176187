package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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

// FuzzDecodeFrame drives arbitrary bytes through readFrame, the decoder
// a TCP connection's read loop runs on hostile input. The payload buffer
// it lends holds 8 bytes with room for 64, so a payload lands in it,
// grows in it by doubling as bytes arrive (the path a payload past
// payloadStep takes, here at a size a fuzzer reaches), or gets a fresh
// slice.
// The decoder must never panic or over-read; it fails with io.EOF on no
// input, io.ErrUnexpectedEOF on a short header and errBadFrame on
// anything else; and any frame it accepts must re-encode to the
// identical bytes (the format is canonical).
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

	grown := appendFrame(nil, ftStreamMsg, 3, bytes.Repeat([]byte{0x5a}, 40))
	f.Add(grown)
	f.Add(grown[:len(grown)-1]) // the peer hangs up while the payload grows
	f.Add(appendFrame(nil, ftStreamResp, 5, bytes.Repeat([]byte{0xa5}, 100)))

	f.Fuzz(func(t *testing.T, b []byte) {
		in := bytes.NewReader(b)
		br := bufio.NewReaderSize(in, frameHeaderLen)
		fr, err := readFrame(br, make([]byte, 8, 64))
		if err != nil {
			switch {
			case len(b) == 0 && err == io.EOF:
			case len(b) > 0 && len(b) < frameHeaderLen && err == io.ErrUnexpectedEOF:
			case len(b) >= frameHeaderLen && errors.Is(err, errBadFrame):
			default:
				t.Fatalf("%d input bytes: error %v is outside the contract", len(b), err)
			}
			return
		}
		n := frameHeaderLen + len(fr.payload)
		if read := len(b) - in.Len() - br.Buffered(); read != n {
			t.Fatalf("consumed %d bytes for a frame of %d", read, n)
		}
		if fr.typ < ftUnaryReq || fr.typ > ftHandlerDone {
			t.Fatalf("accepted unknown frame type %d", fr.typ)
		}
		if crc32.Checksum(fr.payload, crcTable) != binary.BigEndian.Uint32(b[12:16]) {
			t.Fatal("accepted payload whose checksum does not match header")
		}
		if re := appendFrame(nil, fr.typ, fr.id, fr.payload); !bytes.Equal(re, b[:n]) {
			t.Fatal("accepted frame does not re-encode canonically")
		}
	})
}
