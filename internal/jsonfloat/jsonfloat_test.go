package jsonfloat

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// check compares Append with json.Marshal, the contract. buf is
// reused across calls; the returned buffer replaces it.
func check(t testing.TB, buf []byte, f float64) []byte {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	buf = Append(buf[:0], f)
	if !bytes.Equal(buf, want) {
		t.Fatalf("Append(%v) (bits %#016x) = %s, json.Marshal = %s", f, math.Float64bits(f), buf, want)
	}
	return buf
}

// checkSigned checks f and -f.
func checkSigned(t testing.TB, buf []byte, f float64) []byte {
	t.Helper()
	return check(t, check(t, buf, f), -f)
}

// withNeighbours checks ±f and the float64s one ulp either side of it.
func withNeighbours(t testing.TB, buf []byte, f float64) []byte {
	t.Helper()
	buf = checkSigned(t, buf, math.Nextafter(f, 0))
	buf = checkSigned(t, buf, f)
	return checkSigned(t, buf, math.Nextafter(f, math.Inf(1)))
}

// metricsFloatCases are the values internal/sim's codec tests use:
// negative zero, both sides of the 'f'/'e' cutoffs, subnormals and the
// largest finite magnitudes.
var metricsFloatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 2.0 / 3.0,
	1e-6, 9.999999999999999e-7, -1e-6, 1e-7,
	1e21, 9.999999999999999e20, -1e21, 1.0000000000000001e21,
	1e-9, 1e-300, 5e-324, -5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.123456789, 1 / 3.0, 1e20, 1e6,
}

func TestAppendMatchesJSON(t *testing.T) {
	buf := []byte("prefix")
	if got := Append(buf, 2.5); string(got) != "prefix2.5" {
		t.Fatalf("Append did not extend its buffer: %q", got)
	}
	for _, f := range metricsFloatCases {
		buf = checkSigned(t, buf, f)
	}
	// Powers of two reach the narrow lower gap at c = 2^52.
	for e := -80; e <= 75; e++ {
		buf = withNeighbours(t, buf, math.Ldexp(1, e))
	}
	for e := -7; e <= 22; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		buf = withNeighbours(t, buf, f)
	}
	buf = withNeighbours(t, buf, 1e-6)
	buf = withNeighbours(t, buf, 1e21)
	for i := 0; i <= 1_000_000; i++ {
		buf = checkSigned(t, buf, float64(i))
	}
	for i := 0; i <= 1000; i++ {
		buf = checkSigned(t, buf, 1<<53+float64(i))
		buf = checkSigned(t, buf, 1<<53-float64(i))
	}
}

// TestAppendRandom compares random bit patterns, most of them in the
// 'e' range, and random magnitudes spread log-uniformly over the 'f'
// range. -short checks 10^6 of each, a full run 2·10^7.
func TestAppendRandom(t *testing.T) {
	n := 20_000_000
	if testing.Short() {
		n = 1_000_000
	}
	t.Run("bits", func(t *testing.T) {
		t.Parallel()
		r := rand.New(rand.NewSource(1))
		var buf []byte
		for i := 0; i < n; {
			f := math.Float64frombits(r.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			buf = check(t, buf, f)
			i++
		}
	})
	t.Run("magnitudes", func(t *testing.T) {
		t.Parallel()
		r := rand.New(rand.NewSource(2))
		var buf []byte
		for i := 0; i < n; {
			f := math.Pow(10, -6+27*r.Float64())
			if f >= 1e21 {
				continue
			}
			buf = check(t, buf, f)
			i++
		}
	})
}

func TestPow10Table(t *testing.T) {
	if len(pow10) != 5-kMin+1 {
		t.Fatalf("pow10 has %d rows, want %d", len(pow10), 5-kMin+1)
	}
	one := big.NewInt(1)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	for k := kMin; k <= 5; k++ {
		// g = ⌊10^-k·2^(125-r)⌋ + 1 with r = ⌊-k·log2 10⌋.
		r := floorLog2Pow10(-k)
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(abs64(int64(k))), nil)
		if k <= 0 {
			num.Set(p)
		} else {
			den.Set(p)
		}
		if s := 125 - r; s >= 0 {
			num.Lsh(num, uint(s))
		} else {
			den.Lsh(den, uint(-s))
		}
		g := new(big.Int).Quo(num, den)
		if g.BitLen() != 126 {
			t.Fatalf("k=%d: 10^-k·2^(125-r) has %d bits, want 126: floorLog2Pow10(%d) = %d is not ⌊log2 10^-k⌋", k, g.BitLen(), -k, r)
		}
		g.Add(g, one)
		g1 := new(big.Int).Rsh(g, 63).Uint64()
		g0 := new(big.Int).And(g, mask).Uint64()
		if pow10[k-kMin] != [2]uint64{g1, g0} {
			t.Errorf("pow10 row k=%d = %#x, want {%#x, %#x}", k, pow10[k-kMin], g1, g0)
		}
	}
}

// TestLogEstimates checks the fixed-point decimal logarithms against
// exact comparisons over every binary exponent q of the 'f' range;
// TestPow10Table checks floorLog2Pow10 over every k.
func TestLogEstimates(t *testing.T) {
	pow := func(base, e int64) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(base), big.NewInt(abs64(e)), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorIs reports whether ⌊log_base(x)⌋ = k, i.e. base^k <= x < base^(k+1).
	floorIs := func(x *big.Rat, base, k int64) bool {
		return pow(base, k).Cmp(x) <= 0 && x.Cmp(pow(base, k+1)) < 0
	}
	for q := -72; q <= 17; q++ {
		x := pow(2, int64(q))
		if k := floorLog10Pow2(q); !floorIs(x, 10, int64(k)) {
			t.Errorf("floorLog10Pow2(%d) = %d is not ⌊log10 2^q⌋", q, k)
		}
		x34 := new(big.Rat).Mul(x, big.NewRat(3, 4))
		if k := floorLog10ThreeQuartersPow2(q); !floorIs(x34, 10, int64(k)) {
			t.Errorf("floorLog10ThreeQuartersPow2(%d) = %d is not ⌊log10 (3/4)·2^q⌋", q, k)
		}
	}
}

func abs64(i int64) int64 {
	if i < 0 {
		return -i
	}
	return i
}

func FuzzAppend(f *testing.F) {
	for _, v := range metricsFloatCases {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(0x1p52))
	f.Add(math.Float64bits(17.054))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		check(t, nil, v)
	})
}

// wideMix returns n floats shaped like the five of a sim-wide
// completion line (fattree:32,1,32, greedy, load 0.95): release and
// completion times with 16-17 significant digits, a flow time that is
// their difference, path work built from powers of 1.5, and weight 1.
func wideMix(n int) []float64 {
	r := rand.New(rand.NewSource(1))
	out := make([]float64, 0, n)
	var release float64
	for len(out) < n {
		release += r.ExpFloat64() * 0.28
		work := math.Pow(1.5, float64(2+r.Intn(7)))
		completion := release + work*float64(1+r.Intn(3))*2/3
		out = append(out, release, completion, completion-release, work, 1)
	}
	return out[:n]
}

var sinkBuf []byte

// BenchmarkAppend compares the kernel with strconv's shortest 'f'
// formatting, the path every value of the mix took before it.
func BenchmarkAppend(b *testing.B) {
	mix := wideMix(1 << 12)
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"jsonfloat", Append},
		{"strconv", func(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], mix[i&(len(mix)-1)])
			}
			sinkBuf = buf
		})
	}
}
