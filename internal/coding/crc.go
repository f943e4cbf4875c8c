// Package coding implements the error-control codes used by the
// fault-tolerant NoC: a table-driven CRC-16/CCITT for end-to-end error
// detection at the network interfaces, and an extended Hamming(72,64)
// SECDED code (single-error correcting, double-error detecting) for the
// per-link ARQ+ECC protection.
//
// These are real bit-level implementations: the simulator flips actual
// payload bits when injecting timing errors, and these codes detect or
// correct them exactly as the corresponding hardware would.
package coding

import "encoding/binary"

// CRC16Poly is the CRC-16/CCITT generator polynomial x^16+x^12+x^5+1
// (0x1021, MSB-first). CCITT detects all single- and double-bit errors for
// block lengths below 32767 bits, which covers any flit size this
// simulator supports.
const CRC16Poly = 0x1021

var crc16Table [256]uint16

func init() {
	for i := 0; i < 256; i++ {
		c := uint16(i) << 8
		for k := 0; k < 8; k++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ CRC16Poly
			} else {
				c <<= 1
			}
		}
		crc16Table[i] = c
	}
}

// CRC16Words returns the CRC-16/CCITT checksum, with initial value 0xFFFF
// (the CCITT-FALSE convention), over 64-bit payload words serialized
// little-endian, as the network-interface CRC encoder does for each flit.
func CRC16Words(words []uint64) uint16 {
	var buf [8]byte
	crc := uint16(0xFFFF)
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		for _, b := range buf {
			crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
		}
	}
	return crc
}
