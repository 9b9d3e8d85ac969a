//! Fast-tier arithmetic: host-native results + closed-form cycle tallies.
//!
//! The reference tier ([`crate::softfloat`], [`crate::emul`]) computes every
//! emulated operation with the instrumented bit-serial loops the UPMEM
//! runtime library would execute, tallying each primitive integer op. That
//! fidelity is the simulator's ground truth — but it makes simulated wall
//! clock, not modelled DPU time, dominate every run: a single `f32_div`
//! walks a 26-iteration restoring loop just to produce a quotient the host
//! FPU computes in one instruction.
//!
//! This module is the **fast tier** (selected via
//! [`ExecTier::Fast`](crate::config::ExecTier)). Each operation is split
//! into two functions:
//!
//! * a **value** function that computes the result with host-native
//!   arithmetic. IEEE-754 binary32 round-to-nearest-even is what both the
//!   host FPU and the soft-float library implement, so results are
//!   bit-identical by construction (NaNs are canonicalized to
//!   [`QNAN`], as the reference tier does);
//! * a **tally** function that evaluates, in closed form, exactly the
//!   [`OpTally`](crate::cost::OpTally) count the reference routine would
//!   have accumulated: leading-zeros-driven iteration counts for the
//!   shift-add multiply and restoring divides, popcounts for their
//!   data-dependent conditional adds, and branch-structure formulas for
//!   the soft-float routines (including the subnormal pre-normalization
//!   and sticky-shift cases).
//!
//! The **batched tier** ([`ExecTier::Batched`](crate::config::ExecTier))
//! reuses the value functions of this module verbatim: the fused host
//! sweep in `swiftrl-core`'s kernels computes every Q-update through the
//! same host-native routines, so batched values are bit-identical to fast
//! (and hence reference) values by construction. What the batched tier
//! replaces is the *charging* — instead of tallying per intrinsic call,
//! it accumulates loop-trip counts and multiplies by the pinned
//! per-intrinsic slot costs at flush (DESIGN.md §14). The tally functions
//! here remain the per-call ground truth that charging is proven against.
//!
//! The contract is strict: **the fast path may never change a bit or a
//! cycle**. `tests/fastpath_parity.rs` proves it differentially —
//! exhaustively over the special-value lattice and by property testing
//! over random bit patterns — and end-to-end over all twelve paper
//! variants. Every tally formula below cites the loop structure in
//! `softfloat.rs` / `emul.rs` it summarizes; when editing either side,
//! keep them in lockstep or the parity suite will fail.

use crate::softfloat::{
    biased_exp, is_inf, is_nan, is_zero, sign, unpack_finite, IMPLICIT_BIT, QNAN, SIGN_MASK,
};

// ---------------------------------------------------------------------------
// Integer emulation (emul.rs)
// ---------------------------------------------------------------------------

/// Value of [`crate::emul::umul32_wide`]: the exact 64-bit product.
#[inline]
pub fn umul32_wide(a: u32, b: u32) -> u64 {
    a as u64 * b as u64
}

/// Tally of [`crate::emul::umul32_wide`]: 4 setup slots, then 3 per
/// iteration over the bit-length of the smaller operand plus 2 per set bit
/// in it (the conditional 64-bit accumulate).
#[inline]
pub fn umul32_wide_tally(a: u32, b: u32) -> u64 {
    // Same selection rule as the loop: on a leading-zeros tie, `a` is small.
    let small = if a.leading_zeros() >= b.leading_zeros() {
        a
    } else {
        b
    };
    4 + 3 * (32 - small.leading_zeros()) as u64 + 2 * small.count_ones() as u64
}

/// Value of [`crate::emul::imul32_wide`]: the exact signed 64-bit product.
#[inline]
pub fn imul32_wide(a: i32, b: i32) -> i64 {
    a as i64 * b as i64
}

/// Tally of [`crate::emul::imul32_wide`]: sign handling around the
/// magnitude multiply, plus 1 slot for the conditional negate.
#[inline]
pub fn imul32_wide_tally(a: i32, b: i32) -> u64 {
    let neg = (a < 0) ^ (b < 0);
    4 + umul32_wide_tally(a.unsigned_abs(), b.unsigned_abs()) + u64::from(neg)
}

/// Value of [`crate::emul::imul32`]: wrapping 32-bit product.
#[inline]
pub fn imul32(a: i32, b: i32) -> i32 {
    a.wrapping_mul(b)
}

/// Tally of [`crate::emul::imul32`]: the raw bit patterns go straight into
/// the unsigned wide multiply (no sign prologue).
#[inline]
pub fn imul32_tally(a: i32, b: i32) -> u64 {
    umul32_wide_tally(a as u32, b as u32)
}

/// Value of [`crate::emul::udiv32`]: `(n / d, n % d)`.
///
/// # Panics
///
/// Panics if `d == 0`, with the reference routine's message.
#[inline]
pub fn udiv32(n: u32, d: u32) -> (u32, u32) {
    assert!(d != 0, "division by zero in emulated udiv32");
    (n / d, n % d)
}

/// Tally of [`crate::emul::udiv32`]: 4 setup slots; if `n >= d`, the
/// restoring loop runs `lz(d) - lz(n) + 1` steps at 4 slots each plus 2
/// per quotient bit set (the early-exit cost the paper variants depend on).
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn udiv32_tally(n: u32, d: u32) -> u64 {
    assert!(d != 0, "division by zero in emulated udiv32");
    if n < d {
        return 4;
    }
    let steps = (d.leading_zeros() - n.leading_zeros() + 1) as u64;
    4 + 4 * steps + 2 * (n / d).count_ones() as u64
}

/// Value of [`crate::emul::idiv32`]: truncating signed divide.
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn idiv32(n: i32, d: i32) -> (i32, i32) {
    assert!(d != 0, "division by zero in emulated udiv32");
    // Mirrors the reference's unsigned-magnitude arithmetic, which defines
    // idiv32(i32::MIN, -1) = (i32::MIN, 0) instead of trapping.
    (n.wrapping_div(d), n.wrapping_rem(d))
}

/// Tally of [`crate::emul::idiv32`]: sign prologue plus the unsigned divide.
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn idiv32_tally(n: i32, d: i32) -> u64 {
    4 + udiv32_tally(n.unsigned_abs(), d.unsigned_abs())
}

/// Value of [`crate::emul::udiv64`]: `(n / d, n % d)`.
///
/// # Panics
///
/// Panics if `d == 0`, with the reference routine's message.
#[inline]
pub fn udiv64(n: u64, d: u32) -> (u64, u32) {
    assert!(d != 0, "division by zero in emulated udiv64");
    (n / d as u64, (n % d as u64) as u32)
}

/// Tally of [`crate::emul::udiv64`]: 6 setup slots; if `n >= d`, the loop
/// runs over all `64 - lz(n)` significand bits at 5 slots each (64-bit
/// shifts cost two slots) plus 2 per quotient bit set.
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn udiv64_tally(n: u64, d: u32) -> u64 {
    assert!(d != 0, "division by zero in emulated udiv64");
    if n < d as u64 {
        return 6;
    }
    let steps = (64 - n.leading_zeros()) as u64;
    6 + 5 * steps + 2 * (n / d as u64).count_ones() as u64
}

/// Value of [`crate::emul::idiv64`]: truncating signed 64-by-32 divide.
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn idiv64(n: i64, d: i32) -> i64 {
    assert!(d != 0, "division by zero in emulated udiv64");
    let uq = n.unsigned_abs() / d.unsigned_abs() as u64;
    // Same sign reconstruction as the reference (wraps identically on the
    // single i64::MIN / 1 edge in release builds).
    if (n < 0) ^ (d < 0) {
        -(uq as i64)
    } else {
        uq as i64
    }
}

/// [`idiv64`] by one fixed divisor, without a hardware divide: an exact
/// reciprocal (Granlund–Montgomery) computed once, then one `u128`
/// multiply and a shift per quotient. Exact for every numerator of
/// magnitude below 2^63, which covers every product of two `i32`s
/// (at most 2^62 in magnitude): the fixed-point descale of the batched
/// sweep, whose divisor is constant for a whole launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    divisor: i32,
    multiplier: u64,
    shift: u32,
}

impl Reciprocal {
    /// The reciprocal of `divisor`: with d = |divisor| and ℓ = ⌈log₂ d⌉,
    /// the multiplier is m = ⌈2^(63+ℓ) / d⌉. It fits in a `u64` because
    /// d > 2^(ℓ−1), and m·d − 2^(63+ℓ) < d ≤ 2^ℓ makes
    /// ⌊n·m / 2^(63+ℓ)⌋ = ⌊n / d⌋ for every n < 2^63.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    pub fn new(divisor: i32) -> Self {
        assert!(divisor != 0, "division by zero in emulated udiv64");
        let d = divisor.unsigned_abs();
        let shift = 63 + d.next_power_of_two().trailing_zeros();
        let multiplier = (1u128 << shift).div_ceil(u128::from(d)) as u64;
        Self {
            divisor,
            multiplier,
            shift,
        }
    }

    /// The divisor.
    pub fn divisor(&self) -> i32 {
        self.divisor
    }

    /// Value of [`idiv64`]`(n, self.divisor())` for `|n| < 2^63`, with
    /// the same sign reconstruction.
    #[inline]
    pub fn idiv64(&self, n: i64) -> i64 {
        let un = n.unsigned_abs();
        debug_assert!(un < 1 << 63, "numerator {n} outside the exact range");
        let uq = ((u128::from(un) * u128::from(self.multiplier)) >> self.shift) as u64;
        if (n < 0) ^ (self.divisor < 0) {
            -(uq as i64)
        } else {
            uq as i64
        }
    }
}

/// Tally of [`crate::emul::idiv64`]: sign prologue plus the unsigned divide.
///
/// # Panics
///
/// Panics if `d == 0`.
#[inline]
pub fn idiv64_tally(n: i64, d: i32) -> u64 {
    4 + udiv64_tally(n.unsigned_abs(), d.unsigned_abs())
}

// ---------------------------------------------------------------------------
// Soft-float helpers (value-only mirrors of the instrumented routines)
// ---------------------------------------------------------------------------

/// Canonicalizes an FP32 bit pattern the way the reference tier does: a
/// NaN of any encoding becomes the canonical quiet NaN, everything else
/// keeps its bits. A caller chaining host float ops may canonicalize only
/// the value it keeps: a NaN fed to a further add, subtract or multiply
/// yields a NaN again, which that op's own canonicalization would fold.
#[inline]
pub fn f32_canonical(bits: u32) -> u32 {
    canon(f32::from_bits(bits))
}

/// Canonicalizes a host result the way the reference tier does: every NaN
/// becomes the canonical quiet NaN, everything else keeps its bits.
#[inline]
fn canon(r: f32) -> u32 {
    if r.is_nan() {
        QNAN
    } else {
        r.to_bits()
    }
}

/// Value-only sticky right shift (`softfloat::shift_right_sticky` without
/// the tally side effect); used to reconstruct the pre-rounding significand
/// that the round/pack tally formula inspects.
#[inline]
fn srs_value(m: u32, amount: u32) -> u32 {
    if amount == 0 {
        m
    } else if amount >= 32 {
        u32::from(m != 0)
    } else {
        let sticky = u32::from(m & ((1u32 << amount) - 1) != 0);
        (m >> amount) | sticky
    }
}

/// Tally of `softfloat::round_and_pack` for a 27-bit (24 + GRS) significand
/// `m`: 9 fixed slots, +1 when the RNE increment fires, +2 more when the
/// increment carries out of the significand.
#[inline]
fn round_pack_tally(m: u32) -> u64 {
    let grs = m & 0x7;
    let kept = m >> 3;
    if grs > 4 || (grs == 4 && (kept & 1) != 0) {
        if kept + 1 == (1 << 24) {
            12
        } else {
            10
        }
    } else {
        9
    }
}

// ---------------------------------------------------------------------------
// Soft-float emulation (softfloat.rs)
// ---------------------------------------------------------------------------

/// Value of [`crate::softfloat::f32_add`]: host-native `a + b` (RNE),
/// NaN-canonicalized.
#[inline]
pub fn f32_add(a: u32, b: u32) -> u32 {
    canon(f32::from_bits(a) + f32::from_bits(b))
}

/// Tally of [`crate::softfloat::f32_add`]. Special values resolve in the
/// classification prologue; the general path pays unpacking, one sticky
/// alignment shift, the sign-combine branch, a closed-form normalization
/// count (`min(26 - msb(m), exp - 1)` left shifts, or one right shift on
/// carry), and the round/pack epilogue.
pub fn f32_add_tally(a: u32, b: u32) -> u64 {
    if is_nan(a) || is_nan(b) {
        return 10;
    }
    if is_inf(a) {
        return 12;
    }
    if is_inf(b) {
        return 10;
    }
    if is_zero(b) {
        return 12;
    }
    if is_zero(a) {
        return 10;
    }

    let (sa, ea, ma) = unpack_finite(a);
    let (sb, eb, mb) = unpack_finite(b);
    let mut ma3 = ma << 3;
    let mut mb3 = mb << 3;
    let exp = if ea >= eb {
        mb3 = srs_value(mb3, (ea - eb) as u32);
        ea
    } else {
        ma3 = srs_value(ma3, (eb - ea) as u32);
        eb
    };
    // 10 classify + 8 unpack + 2 guard shifts + 3 align srs + 2 = 25.
    let mut tally = 25u64;
    let mut m = if sa == sb {
        tally += 1;
        ma3 + mb3
    } else {
        tally += 3;
        if ma3 > mb3 {
            ma3 - mb3
        } else if mb3 > ma3 {
            mb3 - ma3
        } else {
            // Exact cancellation returns +0 straight from the subtract.
            return tally;
        }
    };
    tally += 2;
    if m & (1 << 27) != 0 {
        let sticky = m & 1;
        m = (m >> 1) | sticky;
        tally += 3;
    } else {
        // Closed form of the normalization loop: left-shift until the
        // implicit bit reaches 26 or the exponent bottoms out at 1.
        let msb = 31 - m.leading_zeros() as i32;
        let n = (26 - msb).min(exp - 1).max(0) as u32;
        m <<= n;
        tally += 3 * n as u64;
    }
    tally + round_pack_tally(m)
}

/// Value of [`crate::softfloat::f32_sub`]: host-native `a - b`,
/// NaN-canonicalized.
#[inline]
pub fn f32_sub(a: u32, b: u32) -> u32 {
    canon(f32::from_bits(a) - f32::from_bits(b))
}

/// Tally of [`crate::softfloat::f32_sub`]: one slot for the sign flip, then
/// the add tally on the negated operand (NaN `b` short-circuits).
pub fn f32_sub_tally(a: u32, b: u32) -> u64 {
    if is_nan(b) {
        return 1;
    }
    1 + f32_add_tally(a, b ^ SIGN_MASK)
}

/// Value of [`crate::softfloat::f32_mul`]: host-native `a * b`,
/// NaN-canonicalized.
#[inline]
pub fn f32_mul(a: u32, b: u32) -> u32 {
    canon(f32::from_bits(a) * f32::from_bits(b))
}

/// Tally of [`crate::softfloat::f32_mul`]. The 24×24 shift-add multiply
/// always costs 60 slots for pre-normalized significands (3×3 byte partial
/// products); subnormal operands add 3 slots per pre-normalization shift,
/// and results below the normal range pay one sticky shift.
pub fn f32_mul_tally(a: u32, b: u32) -> u64 {
    if is_nan(a) || is_nan(b) {
        return 10;
    }
    if is_inf(a) || is_inf(b) {
        return 14;
    }
    if is_zero(a) || is_zero(b) {
        return 12;
    }

    let (_, ea, ma) = unpack_finite(a);
    let (_, eb, mb) = unpack_finite(b);
    let ka = if ma & IMPLICIT_BIT == 0 {
        ma.leading_zeros() - 8
    } else {
        0
    };
    let kb = if mb & IMPLICIT_BIT == 0 {
        mb.leading_zeros() - 8
    } else {
        0
    };
    let man = ma << ka;
    let mbn = mb << kb;
    let mut exp = ea + eb - 127 - ka as i32 - kb as i32;

    // 10 classify + 2 sign + 8 unpack, pre-norm shifts, 60 for mul24x24,
    // 4 after the product, 4 after the GRS reduction.
    let mut tally = 88 + 3 * (ka + kb) as u64;

    let prod = (man as u64) * (mbn as u64);
    let mut m = if prod & (1u64 << 47) != 0 {
        let sticky = u64::from(prod & ((1u64 << 21) - 1) != 0);
        exp += 1;
        ((prod >> 21) | sticky) as u32
    } else {
        let sticky = u64::from(prod & ((1u64 << 20) - 1) != 0);
        ((prod >> 20) | sticky) as u32
    };
    if exp < 1 {
        m = srs_value(m, (1 - exp) as u32);
        tally += 5;
    }
    tally + round_pack_tally(m)
}

/// Value of [`crate::softfloat::f32_div`]: host-native `a / b`,
/// NaN-canonicalized.
#[inline]
pub fn f32_div(a: u32, b: u32) -> u32 {
    canon(f32::from_bits(a) / f32::from_bits(b))
}

/// Tally of [`crate::softfloat::f32_div`]. The restoring loop always runs
/// 26 iterations at 4 slots each; its data-dependent part is 2 slots per
/// set bit of the 26-bit raw quotient, recovered here with one host divide.
pub fn f32_div_tally(a: u32, b: u32) -> u64 {
    if is_nan(a) || is_nan(b) {
        return 10;
    }
    if is_inf(a) {
        return 13;
    }
    if is_inf(b) {
        return 12;
    }
    if is_zero(b) {
        return 13;
    }
    if is_zero(a) {
        return 12;
    }

    let (_, ea, ma) = unpack_finite(a);
    let (_, eb, mb) = unpack_finite(b);
    let ka = if ma & IMPLICIT_BIT == 0 {
        ma.leading_zeros() - 8
    } else {
        0
    };
    let kb = if mb & IMPLICIT_BIT == 0 {
        mb.leading_zeros() - 8
    } else {
        0
    };
    let man = ma << ka;
    let mbn = mb << kb;
    let mut exp = ea - eb + 127 - ka as i32 + kb as i32;

    let adj = u32::from(man < mbn);
    exp -= adj as i32;
    // Quotient and sticky of the 26-iteration restoring loop, in one host
    // divide: q = floor(man * 2^(25+adj) / mbn), 26 bits by construction.
    let num = (man as u64) << (25 + adj);
    let q = (num / mbn as u64) as u32;
    let sticky = u32::from(!num.is_multiple_of(mbn as u64));
    let mut m = (q << 1) | sticky;

    // 10 classify + 2 sign + 8 unpack, pre-norm, conditional quotient
    // alignment, 26×4 loop slots + 2 per quotient bit, 3 epilogue.
    let mut tally = 20
        + 3 * (ka + kb) as u64
        + 2 * adj as u64
        + 26 * 4
        + 2 * q.count_ones() as u64
        + 3;
    if exp < 1 {
        m = srs_value(m, (1 - exp) as u32);
        tally += 5;
    }
    tally + round_pack_tally(m)
}

/// Tally of [`crate::softfloat::f32_cmp`] (shared by the relational ops):
/// 8 slots for classification, +4 for the key flip when the comparison is
/// actually performed.
#[inline]
pub fn f32_cmp_tally(a: u32, b: u32) -> u64 {
    if is_nan(a) || is_nan(b) || (is_zero(a) && is_zero(b)) {
        8
    } else {
        12
    }
}

/// Value of [`crate::softfloat::f32_gt`]: host-native `a > b` (false on
/// NaN, exactly the reference semantics).
#[inline]
pub fn f32_gt(a: u32, b: u32) -> bool {
    f32::from_bits(a) > f32::from_bits(b)
}

/// Value of [`crate::softfloat::f32_lt`]: host-native `a < b`.
#[inline]
pub fn f32_lt(a: u32, b: u32) -> bool {
    f32::from_bits(a) < f32::from_bits(b)
}

/// Value of [`crate::softfloat::f32_max`]: `maxNum` semantics — prefer the
/// non-NaN operand, canonical NaN when both are NaN, +0 over −0 on ties.
pub fn f32_max(a: u32, b: u32) -> u32 {
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    // Ordered and unequal, the common case: one host compare decides.
    if fa > fb {
        return a;
    }
    if fa < fb {
        return b;
    }
    // Equal (a ±0 tie prefers +0) or unordered (a NaN operand).
    match (is_nan(a), is_nan(b)) {
        (true, true) => QNAN,
        (true, false) => b,
        (false, true) => a,
        (false, false) => {
            if sign(a) == 0 {
                a
            } else {
                b
            }
        }
    }
}

/// Tally of [`crate::softfloat::f32_max`]: 4 slots of NaN handling, plus
/// the compare tally when neither operand is NaN.
#[inline]
pub fn f32_max_tally(a: u32, b: u32) -> u64 {
    if is_nan(a) || is_nan(b) {
        4
    } else {
        4 + f32_cmp_tally(a, b)
    }
}

/// Value of [`crate::softfloat::i32_to_f32`]: host-native `v as f32` (RNE).
#[inline]
pub fn i32_to_f32(v: i32) -> u32 {
    (v as f32).to_bits()
}

/// Tally of [`crate::softfloat::i32_to_f32`]: zero short-circuits; wide
/// magnitudes (top bit above 26) pay a sticky shift instead of the cheap
/// left-shift placement, then round/pack.
pub fn i32_to_f32_tally(v: i32) -> u64 {
    if v == 0 {
        return 4;
    }
    let mag = v.unsigned_abs();
    let msb = 31 - mag.leading_zeros();
    if msb <= 26 {
        10 + round_pack_tally(mag << (26 - msb))
    } else {
        12 + round_pack_tally(srs_value(mag, msb - 26))
    }
}

/// Value of [`crate::softfloat::f32_to_i32`]: host-native `as i32` cast
/// (truncating, saturating, 0 on NaN — identical semantics).
#[inline]
pub fn f32_to_i32(bits: u32) -> i32 {
    f32::from_bits(bits) as i32
}

/// Tally of [`crate::softfloat::f32_to_i32`]: 6 slots through the small
/// and NaN cases, 10 on saturation, 15 on the in-range extraction path.
#[inline]
pub fn f32_to_i32_tally(bits: u32) -> u64 {
    if is_nan(bits) {
        return 6;
    }
    let e = biased_exp(bits);
    if e < 127 {
        6
    } else if e - 127 >= 31 {
        10
    } else {
        15
    }
}

/// Value of [`crate::softfloat::f32_neg`]: sign flip, NaN canonicalized.
#[inline]
pub fn f32_neg(a: u32) -> u32 {
    if is_nan(a) {
        QNAN
    } else {
        a ^ SIGN_MASK
    }
}

/// Tally of [`crate::softfloat::f32_neg`]: always 1 slot.
#[inline]
pub fn f32_neg_tally(_a: u32) -> u64 {
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpTally;
    use crate::{emul, softfloat};

    /// A compact lattice of interesting f32 bit patterns; the exhaustive
    /// pairwise suite lives in `tests/fastpath_parity.rs`.
    fn f32_lattice() -> Vec<u32> {
        vec![
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x3F80_0000, // 1.0
            0xBF80_0000, // -1.0
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x7FC0_0000, // canonical qNaN
            0x7F80_0001, // sNaN payload
            0x0000_0001, // min subnormal
            0x007F_FFFF, // max subnormal
            0x0080_0000, // min normal
            0x7F7F_FFFF, // f32::MAX
            0x3DCC_CCCD, // 0.1
            0x4049_0FDB, // pi
            0xC2F6_E979, // -123.456
            0x4EFF_FFFF, // ~2^31, near i32 saturation
        ]
    }

    #[test]
    fn float_binops_match_reference_on_lattice() {
        for &a in &f32_lattice() {
            for &b in &f32_lattice() {
                let mut t = OpTally::new();
                assert_eq!(f32_add(a, b), softfloat::f32_add(a, b, &mut t), "add {a:#x} {b:#x}");
                assert_eq!(f32_add_tally(a, b), t.count(), "add tally {a:#x} {b:#x}");

                let mut t = OpTally::new();
                assert_eq!(f32_mul(a, b), softfloat::f32_mul(a, b, &mut t), "mul {a:#x} {b:#x}");
                assert_eq!(f32_mul_tally(a, b), t.count(), "mul tally {a:#x} {b:#x}");

                let mut t = OpTally::new();
                assert_eq!(f32_div(a, b), softfloat::f32_div(a, b, &mut t), "div {a:#x} {b:#x}");
                assert_eq!(f32_div_tally(a, b), t.count(), "div tally {a:#x} {b:#x}");

                let mut t = OpTally::new();
                assert_eq!(f32_sub(a, b), softfloat::f32_sub(a, b, &mut t), "sub {a:#x} {b:#x}");
                assert_eq!(f32_sub_tally(a, b), t.count(), "sub tally {a:#x} {b:#x}");

                let mut t = OpTally::new();
                assert_eq!(f32_max(a, b), softfloat::f32_max(a, b, &mut t), "max {a:#x} {b:#x}");
                assert_eq!(f32_max_tally(a, b), t.count(), "max tally {a:#x} {b:#x}");

                let mut t = OpTally::new();
                assert_eq!(f32_gt(a, b), softfloat::f32_gt(a, b, &mut t), "gt {a:#x} {b:#x}");
                assert_eq!(f32_cmp_tally(a, b), t.count(), "gt tally {a:#x} {b:#x}");
            }
        }
    }

    #[test]
    fn integer_ops_match_reference() {
        let vals = [0u32, 1, 2, 3, 7, 255, 256, 9_500, 0x8000_0000, u32::MAX];
        for &a in &vals {
            for &b in &vals {
                let mut t = OpTally::new();
                assert_eq!(umul32_wide(a, b), emul::umul32_wide(a, b, &mut t));
                assert_eq!(umul32_wide_tally(a, b), t.count(), "umul tally {a} {b}");
                if b != 0 {
                    let mut t = OpTally::new();
                    assert_eq!(udiv32(a, b), emul::udiv32(a, b, &mut t));
                    assert_eq!(udiv32_tally(a, b), t.count(), "udiv tally {a} {b}");
                }
            }
        }
    }

    #[test]
    fn idiv32_min_by_minus_one_matches_reference() {
        let mut t = OpTally::new();
        assert_eq!(
            idiv32(i32::MIN, -1),
            emul::idiv32(i32::MIN, -1, &mut t)
        );
        assert_eq!(idiv32_tally(i32::MIN, -1), t.count());
    }
}
