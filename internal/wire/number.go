package wire

import (
	"math"
	"math/big"
	"math/bits"
)

// Numbers convert in the pass that checks their grammar. numLit.scan walks
// one literal and gathers its decimal digits into a uint64 as it goes;
// numLit.float then converts those digits exactly, by Clinger's fast path
// or the Eisel-Lemire algorithm (Lemire, "Number Parsing at a Gigabyte
// per Second", arXiv 2101.11408), the two that strconv.ParseFloat itself
// tries first. Both are correctly rounded, so a value they produce has
// ParseFloat's bits. A literal they cannot prove exact, or one that breaks
// the grammar, is left to the scanner's number + strconv path, which gives
// every value and error.

// maxDigits is the most significant digits a uint64 holds for any digit
// string: 10^19 - 1 < 2^64.
const maxDigits = 19

// numLit is one numeric literal as scan read it: the value is
// ±man × 10^exp10 when digits <= maxDigits.
type numLit struct {
	man    uint64 // the literal's digits without the point; wrapped when digits > maxDigits
	exp10  int
	digits int  // digits in man; leading zeros (0.001) leave the count once it passes maxDigits
	end    int  // offset just past the literal
	neg    bool // a leading minus sign
	plain  bool // no fraction and no exponent
}

// scan reads the numeric literal starting at data[i], which is '-' or a
// digit, into n with numberEnd's grammar. It reports false on a byte that
// breaks the grammar; the scanner's number reports that.
//
//hdlts:hotpath
func (n *numLit) scan(data []byte, i int) bool {
	if data[i] == '-' {
		n.neg = true
		i++
	}
	start := i
	switch {
	case i >= len(data):
		return false
	case data[i] == '0':
		i++
	case data[i] >= '1' && data[i] <= '9':
		i, n.man = digits(data, i, 0)
	default:
		return false
	}
	n.plain = true
	if i < len(data) && data[i] == '.' {
		frac := i + 1
		i, n.man = digits(data, frac, n.man)
		if i == frac {
			return false
		}
		n.exp10 = frac - i
		n.plain = false
	}
	n.digits = i - start
	if !n.plain {
		n.digits-- // the point
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		n.plain = false
		i++
		neg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			neg = data[i] == '-'
			i++
		}
		exp := i
		e := 0
		for ; i < len(data) && data[i]-'0' < 10; i++ {
			if e < 1<<16 { // far past any table exponent; strconv gets the rest
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == exp {
			return false
		}
		if neg {
			e = -e
		}
		n.exp10 += e
	}
	if n.digits > maxDigits {
		// Leading zeros, as in 0.000…1, add nothing to man.
		for j := start; j < i && (data[j] == '0' || data[j] == '.'); j++ {
			if data[j] == '0' {
				n.digits--
			}
		}
	}
	n.end = i
	return true
}

// digits folds the run of decimal digits at data[i:] into man and returns
// the offset past the run. man wraps on runs past maxDigits; the caller's
// digit count tells.
//
//hdlts:hotpath
func digits(data []byte, i int, man uint64) (int, uint64) {
	for ; i < len(data) && data[i]-'0' < 10; i++ {
		man = man*10 + uint64(data[i]-'0')
	}
	return i, man
}

// pow10f holds the powers of ten a float64 represents exactly.
var pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float converts the literal, or reports false when it cannot prove the
// result exact: more than maxDigits digits, an exponent outside the
// table, a result out of float64's normal range, or a case Eisel-Lemire
// cannot decide.
func (n *numLit) float() (float64, bool) {
	if n.digits > maxDigits {
		return 0, false
	}
	// Clinger: man and 10^|exp10| are exact float64s, so one correctly
	// rounded multiply or divide gives the correctly rounded value.
	if n.man <= 1<<53 && -22 <= n.exp10 && n.exp10 <= 22 {
		f := float64(n.man)
		if n.exp10 < 0 {
			f /= pow10f[-n.exp10]
		} else {
			f *= pow10f[n.exp10]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(n.man, n.exp10, n.neg)
}

// pow10Min and pow10Max bound the exponents pow128 covers, and lose
// nothing: with at most maxDigits digits, an exponent below pow10Min puts
// the value under 10^-309, subnormal, and one above pow10Max puts it over
// 10^309, out of range. Eisel-Lemire refuses both; strconv converts them.
const (
	pow10Min = -327
	pow10Max = 308
)

// pow128[q-pow10Min] is 10^q to 128 bits, rounded down: {hi, lo} words
// of the integer m in [2^127, 2^128) with 10^q ≈ m × 2^k for some k. It is
// computed exactly with math/big at package init, in about 0.1 ms.
var pow128 = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|q|
	m := new(big.Int)
	words := func(q int) {
		t[q-pow10Min] = [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), m.Uint64()}
	}
	for q := 0; q <= max(pow10Max, -pow10Min); q++ {
		b := p.BitLen()
		if q <= pow10Max {
			if b <= 128 {
				m.Lsh(p, uint(128-b))
			} else {
				m.Rsh(p, uint(b-128))
			}
			words(q)
		}
		if q > 0 && -q >= pow10Min {
			// 2^(b+127) / 10^q lies in (2^127, 2^128): 10^q is no power of two.
			m.Lsh(big.NewInt(1), uint(b+127))
			m.Quo(m, p)
			words(-q)
		}
		p.Mul(p, ten)
	}
	return t
}()

// eiselLemire converts man × 10^exp10 with the Eisel-Lemire algorithm:
// man, normalised, times 10^exp10's 128-bit mantissa gives the result's
// 53 bits unless the product's discarded bits leave the rounding in
// doubt, when it reports false; so do a result that is subnormal or
// overflows and an exponent outside pow128. This follows
// strconv.eiselLemire64, the path ParseFloat takes after its exact one.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow128[exp10-pow10Min]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// 217706/2^16 ≈ log2(10): the binary exponent of 10^exp10, biased.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The low 9 bits that decide rounding are all ones: widen to
		// the table's next 64 bits, and give up if that still does not
		// settle them.
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	msb := hi >> 63
	mant := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // possibly halfway between two float64s: undecided
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal, zero, or infinite
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
