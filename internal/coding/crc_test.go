package coding

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1: the reference the
	// table-driven CRC16Words is checked against computes the standard.
	if got := crc16Bitwise([]byte("123456789")); got != 0x29B1 {
		t.Errorf("crc16Bitwise(check) = %#x, want 0x29B1", got)
	}
}

// Property: every 1- and 2-bit corruption of a 128-bit flit payload is
// detected by CRC-16/CCITT (guaranteed for block lengths < 32767 bits).
func TestCRC16DetectsAllSingleAndDoubleBitErrors(t *testing.T) {
	words := []uint64{0xDEADBEEFCAFEBABE, 0x0123456789ABCDEF}
	orig := CRC16Words(words)
	flip := func(i int) {
		words[i/64] ^= 1 << uint(i%64)
	}
	for i := 0; i < 128; i++ {
		flip(i)
		if CRC16Words(words) == orig {
			t.Fatalf("single-bit flip at %d undetected", i)
		}
		for j := i + 1; j < 128; j++ {
			flip(j)
			if CRC16Words(words) == orig {
				t.Fatalf("double-bit flip at %d,%d undetected", i, j)
			}
			flip(j)
		}
		flip(i)
	}
}

func TestCRC16WordsMatchesByteSerialization(t *testing.T) {
	prop := func(a, b uint64) bool {
		buf := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, a), b)
		return CRC16Words([]uint64{a, b}) == crc16Bitwise(buf)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRCEmptyInputs(t *testing.T) {
	if CRC16Words(nil) != crc16Bitwise(nil) {
		t.Error("empty CRC16Words disagrees with the empty bitwise reference")
	}
}

func BenchmarkCRC16Flit(b *testing.B) {
	words := []uint64{0xDEADBEEFCAFEBABE, 0x0123456789ABCDEF}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CRC16Words(words)
	}
}
