//! Single-pass decimal-to-binary conversion of WKT coordinate tokens.
//!
//! [`parse`] reads a token once: it accumulates the significand while
//! it scans (eight digits at a time where it can), then converts the
//! exact decimal `w × 10^q` with Clinger's fast path when both factors
//! are exact doubles, and with the Eisel–Lemire algorithm (Lemire,
//! "Number Parsing at a Gigabyte per Second", arXiv 2101.11408)
//! otherwise. It gives up, returning `None`, on any token outside its
//! strict grammar or its table window: a leading `+`, more than 19
//! significant digits, a missing digit, an ambiguous Eisel–Lemire
//! product, a subnormal or non-finite result. The caller then takes
//! the general path (`str::parse`), so a returned value is always the
//! correctly rounded double `str::parse::<f64>` would give.

/// True for the bytes a WKT number token may contain. The general path
/// scans a token as the longest run of these bytes.
#[inline]
pub(crate) fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

/// Most significant digits a `u64` significand holds exactly.
const MAX_DIGITS: usize = 19;

/// The decimal exponents the powers-of-five table covers. Below it
/// every `w < 2^64` rounds to zero, above it to infinity.
const SMALLEST_POWER: i64 = -342;
const LARGEST_POWER: i64 = 308;

/// Exact powers of ten for Clinger's fast path.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

// The kernel runs once per coordinate of every record, so it never
// touches the allocator.
// tidy:alloc-free:start

/// Parses the number token at the start of `s` in one pass. Returns the
/// value and the token's length, or `None` when the token needs the
/// general path. The token must be followed by the end of `s` or by a
/// byte outside [`is_number_byte`], so it is exactly the token the
/// general path would scan.
#[inline]
pub(crate) fn parse(s: &[u8]) -> Option<(f64, usize)> {
    let negative = s.first() == Some(&b'-');
    let int_start = usize::from(negative);
    // Leading zeros carry no significance.
    let mut i = skip_zeros(s, int_start);
    let mut w = 0u64;
    let sig_start = i;
    i = digits(s, i, &mut w);
    let mut sig_digits = i - sig_start;
    let mut all_digits = i - int_start;
    let mut frac_digits = 0;
    if s.get(i) == Some(&b'.') {
        let frac_start = i + 1;
        i = if sig_digits == 0 {
            skip_zeros(s, frac_start)
        } else {
            frac_start
        };
        let sig_frac = i;
        i = digits(s, i, &mut w);
        sig_digits += i - sig_frac;
        frac_digits = i - frac_start;
        all_digits += frac_digits;
    }
    if all_digits == 0 || sig_digits > MAX_DIGITS {
        return None;
    }
    // A token is at most `s.len()` bytes, far below `i64::MAX`.
    let mut q = -(frac_digits as i64);
    if let Some(b'e' | b'E') = s.get(i) {
        i += 1;
        let negative_exp = s.get(i) == Some(&b'-');
        if matches!(s.get(i), Some(b'-' | b'+')) {
            i += 1;
        }
        let exp_start = i;
        let mut e = 0i64;
        while let Some(d) = s.get(i).and_then(|&b| digit(b)) {
            // Saturate well outside the table window; any larger
            // exponent takes the general path all the same.
            if e < 0x10000 {
                e = 10 * e + i64::from(d);
            }
            i += 1;
        }
        if i == exp_start {
            return None;
        }
        q += if negative_exp { -e } else { e };
    }
    if s.get(i).is_some_and(|&b| is_number_byte(b)) {
        return None;
    }
    let magnitude = if w == 0 { 0.0 } else { to_f64(w, q)? };
    Some((if negative { -magnitude } else { magnitude }, i))
}

#[inline]
fn digit(b: u8) -> Option<u8> {
    let d = b.wrapping_sub(b'0');
    (d < 10).then_some(d)
}

#[inline]
fn skip_zeros(s: &[u8], mut i: usize) -> usize {
    while s.get(i) == Some(&b'0') {
        i += 1;
    }
    i
}

/// Appends the digit run at `s[i..]` to `w` (wrapping: the caller
/// discards `w` past [`MAX_DIGITS`]) and returns the index after it.
/// Eight digits at a time while eight bytes remain, then one at a time.
#[inline]
fn digits(s: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(chunk) = s.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let v = u64::from_le_bytes(*chunk);
        if !is_8_digits(v) {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(parse_8_digits(v));
        i += 8;
    }
    while let Some(d) = s.get(i).and_then(|&b| digit(b)) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    i
}

/// True when all eight bytes of `v` are ASCII digits.
#[inline]
fn is_8_digits(v: u64) -> bool {
    let a = v.wrapping_add(0x4646_4646_4646_4646);
    let b = v.wrapping_sub(0x3030_3030_3030_3030);
    (a | b) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits read little-endian (first digit in
/// the low byte), by pairwise SWAR multiply-adds.
#[inline]
fn parse_8_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064; // 1_000_000 and 100
    const MUL2: u64 = 0x0000_2710_0000_0001; // 10_000 and 1
    let v = v - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8); // pairs of digits, at most 99 per byte
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// `w × 10^q` rounded to nearest-even, for `w > 0`, or `None` when the
/// result is subnormal, non-finite or outside the exact methods' reach.
#[inline]
fn to_f64(w: u64, q: i64) -> Option<f64> {
    // Clinger: both factors are exact doubles, so one IEEE operation
    // rounds correctly.
    if (-22..=22).contains(&q) && w <= 1 << 53 {
        let v = w as f64;
        let p = POW10[q.unsigned_abs() as usize];
        return Some(if q < 0 { v / p } else { v * p });
    }
    eisel_lemire(w, q)
}

/// The Eisel–Lemire conversion for a 64-bit significand, as in Rust's
/// `core::num::dec2flt::lemire`, minus the subnormal branch.
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    if !(SMALLEST_POWER..=LARGEST_POWER).contains(&q) {
        return None;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let (lo, hi) = product_approx(q, w);
    // The 128-bit product may be off by one in its low word; that can
    // change the rounding only where 5^q is not exact in 128 bits.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper_bit = (hi >> 63) as i32;
    let shift = upper_bit + 64 - 52 - 3;
    let mut mantissa = hi >> shift;
    // `q` is inside the table window, so it fits an `i32`.
    let mut power2 = power(q as i32) + upper_bit - lz as i32 + 1023;
    if power2 <= 0 {
        return None;
    }
    // An exact halfway case between two doubles rounds to even.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && (mantissa << shift) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        power2 += 1;
    }
    mantissa &= !(1 << 52);
    if power2 >= 0x7FF {
        return None;
    }
    Some(f64::from_bits(mantissa | (power2 as u64) << 52))
}

/// `floor(log2(10^q)) + 63`, by the fixed-point `217706 / 2^16`
/// approximation of `log2(10)`, exact over the table window.
#[inline]
fn power(q: i32) -> i32 {
    (q.wrapping_mul(152_170 + 65536) >> 16) + 63
}

/// The high 128 bits of `w × 5^q` from the truncated table entry: one
/// 64×64 multiply, and a second only when the first leaves the bits
/// that decide the rounding in doubt.
#[inline]
fn product_approx(q: i64, w: u64) -> (u64, u64) {
    const MASK: u64 = u64::MAX >> (52 + 3);
    let (hi5, lo5) = POW5[(q - SMALLEST_POWER) as usize];
    let first = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & MASK == MASK {
        let second_hi = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    (lo, hi)
}
// tidy:alloc-free:end

/// Number of table entries, one per decimal exponent in the window.
const POW5_LEN: usize = (LARGEST_POWER - SMALLEST_POWER + 1) as usize;

/// `5^q` for every `q` in the window as a normalized 128-bit `(high,
/// low)` pair: the top 128 bits of `5^q` for `q >= 0`; for `q < 0`,
/// `floor(2^b / 5^-q) + 1` truncated to its top 128 bits, with `b =
/// z + 127` for `q >= -27` and `b = 2z + 128` below, where `z` is the
/// bit length of `5^-q`. This is the table of fast_float and Rust's
/// `core`, generated at compile time.
static POW5: [(u64, u64); POW5_LEN] = pow5_table();

/// Limbs of the generator's big integers: 1792 bits, room for
/// `2^RECIP_BITS` (the numerator of every reciprocal; the largest `b`
/// is 1718) and for `5^308` (716 bits).
const LIMBS: usize = 28;
const RECIP_BITS: usize = 64 * LIMBS - 1;

type Big = [u64; LIMBS];

const fn pow5_table() -> [(u64, u64); POW5_LEN] {
    let mut table = [(0, 0); POW5_LEN];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut q = 0;
    while q <= LARGEST_POWER {
        table[(q - SMALLEST_POWER) as usize] = top_128(&pow);
        mul_5(&mut pow);
        q += 1;
    }
    // `recip` stays exactly floor(2^RECIP_BITS / 5^k): dividing a floor
    // by 5 again is the floor of the quotient by 5^(k+1).
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut recip: Big = [0; LIMBS];
    recip[LIMBS - 1] = 1 << 63;
    let mut k = 1;
    while k <= -SMALLEST_POWER {
        mul_5(&mut pow);
        div_5(&mut recip);
        let z = bit_len(&pow);
        let b = if k <= 27 { z + 127 } else { 2 * z + 128 };
        let mut c = shr(&recip, RECIP_BITS - b);
        add_1(&mut c);
        table[(-k - SMALLEST_POWER) as usize] = top_128(&c);
        k += 1;
    }
    table
}

const fn mul_5(x: &mut Big) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < LIMBS {
        let v = x[i] as u128 * 5 + carry as u128;
        x[i] = v as u64;
        carry = (v >> 64) as u64;
        i += 1;
    }
}

const fn div_5(x: &mut Big) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let v = (rem << 64) | x[i] as u128;
        x[i] = (v / 5) as u64;
        rem = v % 5;
    }
}

const fn add_1(x: &mut Big) {
    let mut i = 0;
    while i < LIMBS {
        x[i] = x[i].wrapping_add(1);
        if x[i] != 0 {
            return;
        }
        i += 1;
    }
}

const fn bit_len(x: &Big) -> usize {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i + 64 - x[i].leading_zeros() as usize;
        }
    }
    0
}

/// `x >> n`.
const fn shr(x: &Big, n: usize) -> Big {
    let mut out: Big = [0; LIMBS];
    let (limbs, bits) = (n / 64, n % 64);
    let mut i = 0;
    while i + limbs < LIMBS {
        let mut v = x[i + limbs] >> bits;
        if bits > 0 && i + limbs + 1 < LIMBS {
            v |= x[i + limbs + 1] << (64 - bits);
        }
        out[i] = v;
        i += 1;
    }
    out
}

/// The top 128 bits of a nonzero `x`, left-aligned when `x` is shorter.
const fn top_128(x: &Big) -> (u64, u64) {
    let len = bit_len(x);
    let v = if len > 128 {
        let s = shr(x, len - 128);
        (s[1] as u128) << 64 | s[0] as u128
    } else {
        ((x[1] as u128) << 64 | x[0] as u128) << (128 - len)
    };
    ((v >> 64) as u64, v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GeomError;
    use proph::{check_with, Config, Data, Gen};

    /// A little-endian big integer over `u32` limbs, independent of the
    /// generator's fixed-width arithmetic.
    #[derive(Clone, PartialEq, PartialOrd)]
    struct Nat(Vec<u32>);

    impl Nat {
        fn one() -> Nat {
            Nat(vec![1])
        }

        fn mul_small(&self, m: u32) -> Nat {
            let mut out = Vec::with_capacity(self.0.len() + 1);
            let mut carry = 0u64;
            for &limb in &self.0 {
                let v = u64::from(limb) * u64::from(m) + carry;
                out.push(v as u32);
                carry = v >> 32;
            }
            if carry > 0 {
                out.push(carry as u32);
            }
            Nat(out)
        }

        fn bits(&self) -> usize {
            let top = self.0.iter().rposition(|&l| l != 0).unwrap();
            32 * top + 32 - self.0[top].leading_zeros() as usize
        }

        fn bit(&self, i: usize) -> bool {
            self.0.get(i / 32).is_some_and(|l| l >> (i % 32) & 1 == 1)
        }

        fn cmp(&self, other: &Nat) -> std::cmp::Ordering {
            let n = self.0.len().max(other.0.len());
            for i in (0..n).rev() {
                let (a, b) = (self.0.get(i), other.0.get(i));
                let ord = a.unwrap_or(&0).cmp(b.unwrap_or(&0));
                if ord.is_ne() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        }

        fn sub(&mut self, other: &Nat) {
            let mut borrow = 0i64;
            for i in 0..self.0.len() {
                let v = i64::from(self.0[i]) - i64::from(*other.0.get(i).unwrap_or(&0)) - borrow;
                self.0[i] = v.rem_euclid(1 << 32) as u32;
                borrow = i64::from(v < 0);
            }
            assert_eq!(borrow, 0);
        }

        fn shl1_or(&mut self, low: bool) {
            let mut carry = u32::from(low);
            for limb in &mut self.0 {
                let next = *limb >> 31;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            if carry > 0 {
                self.0.push(carry);
            }
        }

        fn plus_one(mut self) -> Nat {
            for limb in &mut self.0 {
                let (v, carry) = limb.overflowing_add(1);
                *limb = v;
                if !carry {
                    return self;
                }
            }
            self.0.push(1);
            self
        }

        /// `floor(2^b / d)` by binary long division.
        fn pow2_div(b: usize, d: &Nat) -> Nat {
            let mut quotient = vec![0u32; b / 32 + 1];
            let mut rem = Nat(vec![0]);
            for i in (0..=b).rev() {
                rem.shl1_or(i == b);
                if rem.cmp(d).is_ge() {
                    rem.sub(d);
                    quotient[i / 32] |= 1 << (i % 32);
                }
            }
            Nat(quotient)
        }

        /// The top 128 bits, left-aligned when shorter.
        fn top_128(&self) -> (u64, u64) {
            let len = self.bits();
            let mut v = 0u128;
            for k in 0..128 {
                let bit = len > k && self.bit(len - 1 - k);
                v = v << 1 | u128::from(bit);
            }
            ((v >> 64) as u64, v as u64)
        }
    }

    #[test]
    fn pow5_table_matches_exact_big_integer_arithmetic() {
        let mut pow = Nat::one();
        for q in 0..=LARGEST_POWER {
            assert_eq!(POW5[(q - SMALLEST_POWER) as usize], pow.top_128(), "5^{q}");
            pow = pow.mul_small(5);
        }
        let mut pow = Nat::one();
        for k in 1..=-SMALLEST_POWER {
            pow = pow.mul_small(5);
            let z = pow.bits();
            let b = if k <= 27 { z + 127 } else { 2 * z + 128 };
            let c = Nat::pow2_div(b, &pow).plus_one();
            assert_eq!(POW5[(-k - SMALLEST_POWER) as usize], c.top_128(), "5^-{k}");
        }
        // Every entry is normalized: its top bit is set.
        assert!(POW5.iter().all(|&(hi, _)| hi >> 63 == 1));
    }

    /// What the WKT reader makes of `token` as a point's x coordinate.
    fn via_wkt(token: &str) -> Result<f64, GeomError> {
        let wkt = format!("POINT ({token} 0)");
        Ok(crate::wkt::parse(&wkt)?
            .as_point()
            .map_or(f64::NAN, |p| p.x))
    }

    /// Asserts the reader and `str::parse` agree bit for bit on a token
    /// `str::parse` reads as a finite double.
    fn assert_same(token: &str) {
        let expected: f64 = token.parse().unwrap();
        let got = via_wkt(token).unwrap_or_else(|e| panic!("{token}: {e}"));
        assert_eq!(got.to_bits(), expected.to_bits(), "{token}");
        // The kernel itself, where it answers, answers the same.
        if let Some((v, len)) = parse(token.as_bytes()) {
            assert_eq!(v.to_bits(), expected.to_bits(), "{token}");
            assert_eq!(len, token.len(), "{token}");
        }
    }

    /// A finite double from a uniformly random bit pattern, written in
    /// one of the three forms `write` and other producers emit.
    struct Token;

    impl Gen for Token {
        type Value = String;

        fn generate(&self, rng: &mut Data) -> String {
            let v = loop {
                let v = f64::from_bits(rng.draw_u64());
                if v.is_finite() {
                    break v;
                }
            };
            match rng.draw_bounded(3) {
                0 => format!("{v}"),
                1 => format!("{v:e}"),
                _ => format!("{v:.17e}"),
            }
        }
    }

    #[test]
    fn prop_random_bit_patterns_parse_like_str_parse() {
        check_with(
            Config {
                cases: 20_000,
                ..Config::default()
            },
            "prop_random_bit_patterns_parse_like_str_parse",
            &Token,
            |token| assert_same(&token),
        );
    }

    /// Random significands of a given digit count at every decimal
    /// exponent the table covers, and a little past it.
    struct Digits(usize);

    impl Gen for Digits {
        type Value = String;

        fn generate(&self, rng: &mut Data) -> String {
            let mut s = String::new();
            if rng.draw_bounded(2) == 0 {
                s.push('-');
            }
            for k in 0..self.0 {
                let lo = u64::from(k == 0);
                s.push(char::from(b'0' + (lo + rng.draw_bounded(10 - lo)) as u8));
            }
            let point = rng.draw_bounded(self.0 as u64 + 1) as usize;
            s.insert(s.len() - self.0 + point, '.');
            let exp = rng.draw_bounded(700) as i64 - 360;
            format!("{s}e{exp}")
        }
    }

    #[test]
    fn prop_long_mantissas_parse_like_str_parse() {
        for n in [15, 16, 17, 18, 19, 20, 21, 25, 40] {
            check_with(
                Config {
                    cases: 3_000,
                    ..Config::default()
                },
                "prop_long_mantissas_parse_like_str_parse",
                &Digits(n),
                |token| {
                    let expected: f64 = token.parse().unwrap();
                    match via_wkt(&token) {
                        Ok(v) => assert_eq!(v.to_bits(), expected.to_bits(), "{token}"),
                        Err(_) => assert!(!expected.is_finite(), "{token}"),
                    }
                },
            );
        }
    }

    #[test]
    fn edge_values_parse_like_str_parse() {
        for token in [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "0e999",
            "-0.000e-999",
            "00012.5000",
            ".5",
            "-.5",
            "5.",
            "1.e5",
            "1E+5",
            "+1",
            "+1.5e3",
            "9007199254740992",
            "9007199254740993",
            "9007199254740993.0",
            "18446744073709551615",
            "1844674407370955161.5",
            "9999999999999999999",
            "99999999999999999999",
            "1.7976931348623157e308",
            "-1.7976931348623157e308",
            "1.7976931348623158e308",
            "2.2250738585072014e-308",
            "2.2250738585072011e-308",
            "2.2250738585072009e-308",
            "4.9406564584124654e-324",
            "5e-324",
            "1e-320",
            "2.4703282292062328e-324",
            "1e-400",
            "1e308",
            "1e-342",
            "1e-343",
            "1e22",
            "1e23",
            "123456789012345678e-22",
            // Exact halfway cases between adjacent doubles, both ways.
            "9007199254740993",
            "9007199254740995",
            "2.0000000000000002220446049250313080847263336181640625",
            "1.00000000000000011102230246251565404236316680908203125",
            "1.00000000000000011102230246251565404236316680908203124",
            "1.00000000000000011102230246251565404236316680908203126",
            "7.2057594037927933e16",
            "72057594037927933",
            "-73.98542838096619",
            "40.748440170288086",
            "123456.78901234567",
        ] {
            assert_same(token);
        }
        // Adjacent doubles around powers of two and ten, written shortest
        // and with 17 digits.
        for base in [1.0, 1e22, 1e23, 2f64.powi(53), 1e-300, 1e300, f64::MAX] {
            let mut v: f64 = base;
            for _ in 0..4 {
                assert_same(&format!("{v}"));
                assert_same(&format!("{v:.16e}"));
                v = f64::from_bits(v.to_bits() - 1);
            }
        }
    }

    #[test]
    fn malformed_tokens_fail_where_they_did() {
        let error_at = |token: &str| match via_wkt(token) {
            Err(GeomError::WktParse { message, offset }) => (message, offset),
            other => panic!("{token}: expected a parse error, got {other:?}"),
        };
        for token in [
            "1.5-2", "1e", ".", "--1", "-", "1e5e", "1..2", "1e+", "1e999", "-1e999",
        ] {
            assert_eq!(
                error_at(token),
                ("malformed number".to_string(), 7),
                "{token}"
            );
            assert!(token.parse::<f64>().map_or(true, |v| !v.is_finite()));
        }
        // No number at all.
        assert_eq!(error_at(")"), ("expected a number".to_string(), 7));
        assert_eq!(error_at("inf"), ("expected a number".to_string(), 7));
        // Past the first coordinate the offset is the bad token's own.
        for (wkt, offset) in [
            ("POLYGON ((0 0, 1 0, 1 1e999, 0 0))", 22),
            ("LINESTRING (1 2, 3 --4)", 19),
        ] {
            match crate::wkt::parse(wkt) {
                Err(GeomError::WktParse {
                    message,
                    offset: at,
                }) => {
                    assert_eq!(
                        (message.as_str(), at),
                        ("malformed number", offset),
                        "{wkt}"
                    );
                }
                other => panic!("{wkt}: expected a parse error, got {other:?}"),
            }
        }
        // The kernel declines every one of them.
        for token in ["1.5-2", "1e", ".", "--1", "1e999", "+1", "1e5.5"] {
            assert_eq!(parse(token.as_bytes()), None, "{token}");
        }
    }

    #[test]
    fn swar_digits_match_scalar_digits() {
        for s in ["12345678", "00000000", "99999999", "09182736"] {
            let v = u64::from_le_bytes(s.as_bytes().try_into().unwrap());
            assert!(is_8_digits(v));
            assert_eq!(parse_8_digits(v), s.parse::<u64>().unwrap());
        }
        for s in [
            "1234567a",
            "/0000000",
            ":9999999",
            "1234 678",
            "\u{7f}0000000",
        ] {
            let v = u64::from_le_bytes(s.as_bytes().try_into().unwrap());
            assert!(!is_8_digits(v), "{s}");
        }
    }
}
