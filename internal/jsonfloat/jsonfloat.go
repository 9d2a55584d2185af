// Package jsonfloat formats a float64 exactly as encoding/json does,
// for the append codecs that write this repository's NDJSON lines.
//
// encoding/json writes a finite float64 as the shortest decimal that
// reads back as the same float64, the closest such decimal if several
// qualify and the one with an even last digit on a tie, in 'f' form
// for 1e-6 <= |f| < 1e21 and in 'e' form otherwise. Inside the 'f'
// range, which holds nearly every time, flow and work value the
// engine produces, Append finds those digits with Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020): three
// 128-bit products against one of 28 precomputed powers of ten, then
// at most two tests of two candidates. strconv finds them with Ryū
// (U. Adams, PLDI 2018). Both algorithms return the unique shortest,
// closest, ties-to-even decimal, so the digits cannot differ; the
// package's differential tests and FuzzAppend pin the bytes against
// json.Marshal. Zero and the 'e' range keep strconv's path.
package jsonfloat

import (
	"math"
	"math/bits"
	"strconv"
)

// Append appends f as encoding/json writes a float64 and returns the
// extended buffer. f must be finite: encoding/json refuses NaN and
// ±Inf, and callers check for them before encoding.
func Append(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if !(abs >= 1e-6 && abs < 1e21) {
		return appendStrconv(dst, f)
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	// f = c·2^q with c in [2^52, 2^53): every value in the 'f' range
	// is normal.
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52&0x7ff) - 1075
	if mq := uint(-q); mq > 0 && mq < 53 && c&(1<<mq-1) == 0 {
		// An integer below 2^53 is its own shortest decimal.
		return appendDecimal(dst, c>>mq, 0)
	}
	d, k := shortest(c, q)
	return appendDecimal(dst, d, k)
}

// appendStrconv is encoding/json's own float64 formatting, kept for
// zero and the 'e' range.
func appendStrconv(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// ES6 number-to-string trims the exponent's leading zero:
		// "e-09" becomes "e-9".
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// kMin is the smallest decimal exponent k the 'f' range needs:
// 1e-6 >= 2^-72·2^52, and ⌊-72·log10 2⌋ = -22. The largest is
// ⌊17·log10 2⌋ = 5, for values just below 1e21 < 2^(17+53).
const kMin = -22

// pow10 holds, for k = kMin…5, g = ⌊10^-k·2^(125-⌊-k·log2 10⌋)⌋ + 1
// split as {g >> 63, g & (2^63-1)}: 10^-k scaled into [2^125, 2^126)
// and rounded up. TestPow10Table recomputes it with math/big.
var pow10 = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, //  -9
	{0x5f5e100000000000, 0x0000000000000001}, //  -8
	{0x4c4b400000000000, 0x0000000000000001}, //  -7
	{0x7a12000000000000, 0x0000000000000001}, //  -6
	{0x61a8000000000000, 0x0000000000000001}, //  -5
	{0x4e20000000000000, 0x0000000000000001}, //  -4
	{0x7d00000000000000, 0x0000000000000001}, //  -3
	{0x6400000000000000, 0x0000000000000001}, //  -2
	{0x5000000000000000, 0x0000000000000001}, //  -1
	{0x4000000000000000, 0x0000000000000001}, //   0
	{0x6666666666666666, 0x3333333333333334}, //   1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, //   2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, //   3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, //   4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, //   5
}

// The fixed-point logarithms below are exact floors for every exponent
// the 'f' range reaches (TestLogEstimates and TestPow10Table check
// them with math/big).
func floorLog10Pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func floorLog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func floorLog2Pow10(e int) int { return e * 217_706 >> 16 }

// shortest returns the shortest decimal d·10^k that rounds to c·2^q,
// the closest one if several do and the even one on a tie. d may end
// in zeros. It follows Giulietti's Schubfach, specialised to normal
// values whose k lies in the pow10 table.
func shortest(c uint64, q int) (d uint64, k int) {
	out := c & 1 // an odd c's rounding interval excludes its ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != 1<<52 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		// The gap to the next smaller float64 is half as wide.
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	h := uint(q + floorLog2Pow10(-k) + 2)
	g := &pow10[k-kMin]
	vb := roundOdd(g, cb<<h)
	vbl := roundOdd(g, cbl<<h)
	vbr := roundOdd(g, cbr<<h)

	// Candidates one digit shorter than s, the multiples of ten around
	// it: the interval holds at most one of them.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise s or s+1, the closer when both are in.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	cmp := int64(vb) - int64((s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundOdd returns g·cp / 2^127 rounded to odd as Schubfach computes
// it: the integer part, with its lowest bit set when the 63 bits below
// it are not all zero. The product's lowest 64 bits are never formed;
// Giulietti shows they cannot change the outcome.
func roundOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

const digitPairs = "" +
	"00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// put2 writes the two digits of v < 100 to b.
func put2(b []byte, v uint32) {
	b[0], b[1] = digitPairs[2*v], digitPairs[2*v+1]
}

// appendDecimal appends d·10^k in 'f' form with no trailing zeros
// after the decimal point. d has at most 18 digits: shortest can round
// a 17-digit s up to 10^17.
func appendDecimal(dst []byte, d uint64, k int) []byte {
	// Digits are written right-aligned to end, leaving room on the
	// left for a decimal point moved into them.
	var buf [24]byte
	const end = len(buf)
	i := end
	for d >= 1e8 {
		// Eight digits from two independent four-digit halves.
		lo := uint32(d % 1e8)
		d /= 1e8
		i -= 8
		hi4, lo4 := lo/10000, lo%10000
		put2(buf[i:], hi4/100)
		put2(buf[i+2:], hi4%100)
		put2(buf[i+4:], lo4/100)
		put2(buf[i+6:], lo4%100)
	}
	v := uint32(d)
	for v >= 100 {
		i -= 2
		put2(buf[i:], v%100)
		v /= 100
	}
	if v >= 10 {
		i -= 2
		put2(buf[i:], v)
	} else {
		i--
		buf[i] = byte('0' + v)
	}
	if k >= 0 {
		dst = append(dst, buf[i:]...)
		for ; k > 0; k-- {
			dst = append(dst, '0')
		}
		return dst
	}
	j := end
	for k < 0 && buf[j-1] == '0' {
		j--
		k++
	}
	switch point := j + k; {
	case k == 0:
	case point > i:
		// Shift the integer digits one place left to open a gap.
		for p := i; p < point; p++ {
			buf[p-1] = buf[p]
		}
		buf[point-1] = '.'
		i--
	default:
		dst = append(dst, '0', '.')
		for ; point < i; point++ {
			dst = append(dst, '0')
		}
	}
	return append(dst, buf[i:j]...)
}
