//! Property tests for the integer runtime-library emulation.

use swiftrl_env::rng::{for_each_case, Rng, SplitMix64};
use swiftrl_pim::cost::OpTally;
use swiftrl_pim::emul;
use swiftrl_pim::fastpath::{self, Reciprocal};

/// Cases per property.
const CASES: u64 = 4096;

fn any_i32(rng: &mut SplitMix64) -> i32 {
    rng.next_u32() as i32
}

/// Uniform over `1..=u32::MAX`.
fn nonzero_u32(rng: &mut SplitMix64) -> u32 {
    1 + rng.next_u32() % u32::MAX
}

#[test]
fn umul_wide_exact() {
    for_each_case(CASES, |rng, at| {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        let mut t = OpTally::new();
        assert_eq!(emul::umul32_wide(a, b, &mut t), a as u64 * b as u64, "{at}");
    });
}

#[test]
fn imul_wide_exact() {
    for_each_case(CASES, |rng, at| {
        let (a, b) = (any_i32(rng), any_i32(rng));
        let mut t = OpTally::new();
        assert_eq!(emul::imul32_wide(a, b, &mut t), a as i64 * b as i64, "{at}");
    });
}

#[test]
fn imul_wraps_like_c() {
    for_each_case(CASES, |rng, at| {
        let (a, b) = (any_i32(rng), any_i32(rng));
        let mut t = OpTally::new();
        assert_eq!(emul::imul32(a, b, &mut t), a.wrapping_mul(b), "{at}");
    });
}

#[test]
fn udiv_exact() {
    for_each_case(CASES, |rng, at| {
        let (n, d) = (rng.next_u32(), nonzero_u32(rng));
        let mut t = OpTally::new();
        assert_eq!(emul::udiv32(n, d, &mut t), (n / d, n % d), "{at}");
    });
}

#[test]
fn idiv_exact() {
    for_each_case(CASES, |rng, at| {
        let (n, d) = (any_i32(rng), any_i32(rng));
        if d == 0 || (n == i32::MIN && d == -1) {
            return; // division by zero, and the overflow that is UB in C
        }
        let mut t = OpTally::new();
        assert_eq!(emul::idiv32(n, d, &mut t), (n / d, n % d), "{at}");
    });
}

#[test]
fn udiv64_exact() {
    for_each_case(CASES, |rng, at| {
        let (n, d) = (rng.next_u64(), nonzero_u32(rng));
        let mut t = OpTally::new();
        let want = (n / d as u64, (n % d as u64) as u32);
        assert_eq!(emul::udiv64(n, d, &mut t), want, "{at}");
    });
}

#[test]
fn idiv64_exact() {
    for_each_case(CASES, |rng, at| {
        let (n, d) = (rng.next_u64() as i64, any_i32(rng));
        if d == 0 || n == i64::MIN {
            return;
        }
        let mut t = OpTally::new();
        assert_eq!(emul::idiv64(n, d, &mut t), n / d as i64, "{at}");
    });
}

/// The batched sweep's division-free descale equals `n / d` for every
/// divisor an `i32` scale can hold and every numerator the sweep forms
/// (a product of two `i32`s, so at most 2^62 in magnitude).
#[test]
fn reciprocal_descale_matches_division() {
    let mut divisors = vec![1i64, 2, 3, 10_000, (1 << 31) - 1, 1 << 31];
    for k in 1..=31 {
        divisors.extend([(1i64 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    divisors.retain(|&d| d <= 1 << 31);
    // Both signs; |d| = 2^31 exists only as i32::MIN.
    let divisors: Vec<i32> = divisors
        .iter()
        .flat_map(|&d| [i32::try_from(d).ok(), i32::try_from(-d).ok()])
        .flatten()
        .collect();
    let edges = [
        0i64,
        1,
        -1,
        1 << 62,
        -(1 << 62),
        (1 << 62) - 1,
        1 - (1 << 62),
    ];
    for &d in &divisors {
        let r = Reciprocal::new(d);
        assert_eq!(r.divisor(), d);
        for n in edges {
            assert_eq!(r.idiv64(n), n / d as i64, "{n} / {d}");
        }
    }
    for_each_case(CASES, |rng, at| {
        let n = any_i32(rng) as i64 * any_i32(rng) as i64;
        for &d in &divisors {
            let r = Reciprocal::new(d);
            assert_eq!(r.idiv64(n), n / d as i64, "{at}: {n} / {d}");
            assert_eq!(r.idiv64(n), fastpath::idiv64(n, d), "{at}: {n} / {d}");
        }
        let d = any_i32(rng);
        if d != 0 {
            assert_eq!(
                Reciprocal::new(d).idiv64(n),
                n / d as i64,
                "{at}: {n} / {d}"
            );
        }
    });
}

#[test]
fn lcg_below_uniform_bound() {
    for_each_case(CASES, |rng, at| {
        let (seed, bound) = (rng.next_u32(), nonzero_u32(rng));
        let mut lcg = emul::Lcg32::new(seed);
        for _ in 0..16 {
            assert!(lcg.next_below(bound) < bound, "{at}: bound {bound}");
        }
    });
}

#[test]
fn mul_cost_monotone_in_smaller_operand_bits() {
    // Cost of multiplying by a k-bit operand grows with k.
    for_each_case(CASES, |rng, at| {
        let (a, shift) = (nonzero_u32(rng), rng.next_u32() % 31);
        let small = a >> shift.max(16);
        if small == 0 {
            return;
        }
        let mut t_small = OpTally::new();
        emul::umul32_wide(small, u32::MAX, &mut t_small);
        let mut t_big = OpTally::new();
        emul::umul32_wide(u32::MAX, u32::MAX, &mut t_big);
        assert!(t_small.count() <= t_big.count(), "{at}: small {small}");
    });
}
