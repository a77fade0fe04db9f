package dds

import (
	"math"
	"math/bits"
)

// Exact summation. A float32 is m·2^(e−150) with a 24-bit integer m and
// e in [1, 254] (subnormals use e = 1), so scaling by 2^149 turns every
// finite input into an integer below 2^277. exactSum keeps that integer
// in radix-2^32 digits; integer addition is associative and commutative,
// so partial sums merge in any order to the same state and SUM/AVG no
// longer depend on how the rows were split, scheduled or spilled.
const (
	sumDigits = 9       // 9·32 bits cover bit 276, the top of MaxFloat32·2^149
	sumScale  = 149     // 2^-149 is the smallest float32 subnormal
	sumNorm   = 1 << 30 // adds between carries: each adds < 2^32 to a digit
)

// exactSum is the exact sum of the float32 values added to it:
// Σ d[i]·2^(32i−149). Digits below the top are int64 so up to sumNorm
// signed 32-bit contributions accumulate before normalize carries them;
// the top digit absorbs every carry (it overflows only after about 2^42
// adds of MaxFloat32). NaN and ±Inf inputs are tracked apart and resolve
// the way IEEE float64 folding does.
type exactSum struct {
	d                   [sumDigits]int64
	pending             int32
	nan, posInf, negInf bool
}

func (s *exactSum) add(v float32) {
	b := math.Float32bits(v)
	exp := int(b>>23) & 0xff
	m := uint64(b & 0x7fffff)
	switch {
	case exp == 0xff:
		switch {
		case m != 0:
			s.nan = true
		case b>>31 != 0:
			s.negInf = true
		default:
			s.posInf = true
		}
		return
	case exp == 0:
		if m == 0 {
			return // ±0
		}
		exp = 1
	default:
		m |= 1 << 23
	}
	shift := uint(exp - 1)
	w := m << (shift & 31)
	i := shift >> 5
	lo, hi := int64(w&math.MaxUint32), int64(w>>32)
	if b>>31 != 0 {
		s.d[i] -= lo
		s.d[i+1] -= hi
	} else {
		s.d[i] += lo
		s.d[i+1] += hi
	}
	if s.pending++; s.pending == sumNorm {
		s.normalize()
	}
}

// normalize carries every digit below the top into [0, 2^32).
func (s *exactSum) normalize() {
	carry(&s.d)
	s.pending = 0
}

func carry(d *[sumDigits]int64) {
	for i := 0; i < sumDigits-1; i++ {
		c := d[i] >> 32
		d[i] -= c << 32
		d[i+1] += c
	}
}

// merge adds o's total into s.
func (s *exactSum) merge(o *exactSum) {
	od := o.d
	carry(&od)
	s.normalize()
	for i := range s.d {
		s.d[i] += od[i]
	}
	s.nan = s.nan || o.nan
	s.posInf = s.posInf || o.posInf
	s.negInf = s.negInf || o.negInf
}

// float64 returns the exact sum rounded to the nearest float64 (ties to
// even), or NaN/±Inf when non-finite inputs were added.
func (s *exactSum) float64() float64 {
	switch {
	case s.nan || s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	d := s.d
	carry(&d)
	neg := d[sumDigits-1] < 0
	if neg {
		for i := range d {
			d[i] = -d[i]
		}
		carry(&d)
	}
	// Magnitude as radix-2^32 digits, the top split so every digit fits
	// in 32 bits; two zero digits below keep the window reads in range.
	var e [sumDigits + 3]uint64
	for i := 0; i < sumDigits-1; i++ {
		e[i+2] = uint64(d[i])
	}
	top := uint64(d[sumDigits-1])
	e[sumDigits+1], e[sumDigits+2] = top&math.MaxUint32, top>>32
	k := len(e) - 1
	for k >= 2 && e[k] == 0 {
		k--
	}
	if k < 2 {
		return 0
	}
	// The leading 64 bits, with every lower bit folded into a sticky bit:
	// float64 keeps 53, so the sticky bit only breaks exact ties and the
	// single uint64→float64 rounding is the correctly rounded result.
	x := e[k]<<32 | e[k-1]
	lz := uint(bits.LeadingZeros64(x))
	hi := x << lz
	rest := e[k-2]
	if lz > 0 {
		hi |= rest >> (32 - lz)
		rest &= 1<<(32-lz) - 1
	}
	for j := k - 3; j >= 0 && rest == 0; j-- {
		rest = e[j]
	}
	if rest != 0 {
		hi |= 1
	}
	f := math.Ldexp(float64(hi), 32*(k-3)-int(lz)-sumScale)
	if neg {
		return -f
	}
	return f
}

// totalKey maps a float32 to a key whose unsigned order is IEEE 754
// totalOrder: −NaN < −Inf < … < −0 < +0 < … < +Inf < +NaN. MIN, MAX and
// group ordering use it so ties between −0/+0 and NaN payloads resolve
// the same way whatever order the rows arrive in.
func totalKey(v float32) uint32 {
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}
