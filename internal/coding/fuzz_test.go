package coding

// Native Go fuzz harnesses for the two codes the simulator's correctness
// hangs on. Run the full fuzzers with e.g.
//
//	go test -fuzz FuzzSECDEDRoundTrip -fuzztime 30s ./internal/coding
//
// `go test` alone replays the seed corpus as regression tests.

import (
	"encoding/binary"
	"testing"
)

// flipCodewordBit flips one of the 72 codeword bits: positions 0..63 are
// data bits, 64..71 are check bits.
func flipCodewordBit(data uint64, check uint8, pos int) (uint64, uint8) {
	if pos < 64 {
		return data ^ (1 << uint(pos)), check
	}
	return data, check ^ (1 << uint(pos-64))
}

// FuzzSECDEDRoundTrip checks the SECDED(72,64) contract over arbitrary
// payloads and error positions: a clean codeword decodes OK, any single
// flipped bit is corrected back to the original data, and any double flip
// is flagged uncorrectable (never miscorrected, never missed).
func FuzzSECDEDRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(1))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), uint8(71), uint8(0))
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint8(64), uint8(63))
	f.Add(uint64(1), uint8(3), uint8(3)) // equal positions: degenerate double
	f.Fuzz(func(t *testing.T, data uint64, rawA, rawB uint8) {
		check := EncodeSECDED(data)

		// 0 flips: clean round trip.
		if got, res := DecodeSECDED(data, check); res != DecodeOK || got != data {
			t.Fatalf("clean decode: got %x/%v, want %x/ok", got, res, data)
		}

		// 1 flip anywhere in the 72-bit codeword: corrected, data restored.
		posA := int(rawA) % 72
		d1, c1 := flipCodewordBit(data, check, posA)
		got, res := DecodeSECDED(d1, c1)
		if res != DecodeCorrected {
			t.Fatalf("single flip at %d: result %v, want corrected", posA, res)
		}
		if got != data {
			t.Fatalf("single flip at %d: data %x, want %x", posA, got, data)
		}

		// 2 distinct flips: detected, never silently (mis)corrected.
		posB := int(rawB) % 72
		if posB == posA {
			return
		}
		d2, c2 := flipCodewordBit(d1, c1, posB)
		if _, res := DecodeSECDED(d2, c2); res != DecodeDetected {
			t.Fatalf("double flip at %d,%d: result %v, want detected", posA, posB, res)
		}
	})
}

// Bit-at-a-time reference implementations, deliberately naive: the fuzzer
// checks the table-driven production code against these.

func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ CRC16Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// FuzzCRCTableVsBitwise cross-checks the table-driven CRC16Words against
// the bitwise reference over the little-endian bytes of arbitrary words
// (the whole 8-byte words of each input).
func FuzzCRCTableVsBitwise(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("123456789"))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x0F, 0xF0})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data)/8*8]
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		if got, want := CRC16Words(words), crc16Bitwise(data); got != want {
			t.Errorf("CRC16Words(%x) = %04x, bitwise reference %04x", words, got, want)
		}
	})
}

// sameOutcome checks that an error pattern e (payload words ew, check-bit
// bytes ec) meets payloads a and b alike: the flit CRC-16 flags a⊕e
// exactly when it flags b⊕e, and every word's SECDED decode returns the
// same result class and leaves the same residual error (decoded ⊕ sent).
// That is what lets the simulator draw payload words from any stream: no
// word value can change what the codes do with an error.
func sameOutcome(t *testing.T, a, b, ew [2]uint64, ec [2]uint8) {
	t.Helper()
	hitA := [2]uint64{a[0] ^ ew[0], a[1] ^ ew[1]}
	hitB := [2]uint64{b[0] ^ ew[0], b[1] ^ ew[1]}
	flagA := CRC16Words(hitA[:]) != CRC16Words(a[:])
	flagB := CRC16Words(hitB[:]) != CRC16Words(b[:])
	if flagA != flagB {
		t.Fatalf("error %x: CRC-16 flags payload %x %v, payload %x %v", ew, a, flagA, b, flagB)
	}
	for w := range a {
		gotA, resA := DecodeSECDED(hitA[w], EncodeSECDED(a[w])^ec[w])
		gotB, resB := DecodeSECDED(hitB[w], EncodeSECDED(b[w])^ec[w])
		if resA != resB || gotA^a[w] != gotB^b[w] {
			t.Fatalf("error %x/%x on word %d: payload %x decodes %v residual %x, payload %x %v residual %x",
				ew[w], ec[w], w, a[w], resA, gotA^a[w], b[w], resB, gotB^b[w])
		}
	}
}

// TestDetectionIgnoresPayload runs sameOutcome over every one- and
// two-bit error in a flit's 128 payload bits, and every single check-bit
// error, for a few payload pairs.
func TestDetectionIgnoresPayload(t *testing.T) {
	pairs := [][2][2]uint64{
		{{0, 0}, {^uint64(0), ^uint64(0)}},
		{{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF}, {0x5555555555555555, 0xAAAAAAAAAAAAAAAA}},
	}
	bit := func(i int) [2]uint64 {
		var e [2]uint64
		e[i/64] = 1 << uint(i%64)
		return e
	}
	for _, p := range pairs {
		for i := 0; i < 128; i++ {
			sameOutcome(t, p[0], p[1], bit(i), [2]uint8{})
			for j := i + 1; j < 128; j++ {
				e := bit(i)
				e[j/64] ^= 1 << uint(j%64)
				sameOutcome(t, p[0], p[1], e, [2]uint8{})
			}
		}
		for c := 0; c < 16; c++ {
			var ec [2]uint8
			ec[c/8] = 1 << uint(c%8)
			sameOutcome(t, p[0], p[1], [2]uint64{}, ec)
		}
	}
}

// FuzzDetectionIgnoresPayload: for arbitrary payloads a, b and an
// arbitrary error pattern, CRC-16 detection and the SECDED outcome
// depend on the error alone (sameOutcome).
func FuzzDetectionIgnoresPayload(f *testing.F) {
	f.Add(uint64(0), uint64(0), ^uint64(0), ^uint64(0), uint64(1), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint64(7), uint64(1), uint64(2), uint64(0x11), uint64(1<<63), uint8(0), uint8(4))
	f.Add(uint64(42), uint64(43), uint64(44), uint64(45), uint64(0x7), uint64(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1, e0, e1 uint64, c0, c1 uint8) {
		sameOutcome(t, [2]uint64{a0, a1}, [2]uint64{b0, b1}, [2]uint64{e0, e1}, [2]uint8{c0, c1})
	})
}
