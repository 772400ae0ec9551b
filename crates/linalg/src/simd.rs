//! Run-time AVX2 dispatch for the hot dense kernels.
//!
//! The workspace builds for baseline x86-64, whose vector unit is SSE2:
//! sixteen 2-lane `f64` registers. Most hosts it runs on also have AVX2,
//! whose registers hold four lanes. [`wide`] runs a closure inside a
//! function compiled with `avx2` enabled when the CPU reports the feature,
//! and calls it plainly everywhere else. There is no flag, environment
//! variable or setting: the CPU decides.
//!
//! **No bit can move.** Only `avx2` is enabled, not `fma`. Rust never
//! contracts `a·b + c` into a fused multiply–add and never reassociates a
//! floating-point sum, so the compiler may only put *independent* lanes of
//! the same operations into wider registers. Every `+`, `−`, `·`, `/` and
//! `sqrt` is the same correctly rounded IEEE 754 operation whether it runs
//! in a 2-lane `xmm` or a 4-lane `ymm` register, and integer lanes (the
//! fixed-point scalar) are exact either way. The kernels' own proptests and
//! bit pins run through this dispatch, and `tests` below compares each
//! dispatched kernel with its direct call on ±0 and NaN operands.
//!
//! **Using it.** The body only benefits if the compiler inlines it into the
//! trampoline, so write the closure as `wide(#[inline(always)] || …)` and
//! mark every kernel it calls `#[inline(always)]`; a kernel that stays an
//! out-of-line call runs its baseline code. Work handed to the pool leaves
//! the trampoline: call `wide` inside each pool tile, not around the
//! dispatch. Route a kernel through one `wide` call site, so it is
//! compiled once per path. A kernel whose inner loop is an in-order scalar
//! chain (Cholesky, the single-sample RLS passes) has no independent lanes
//! to widen and is left out.

#![allow(unsafe_code)]

/// Whether [`wide`] takes its AVX2 branch: `true` on x86-64 when the CPU
/// reports AVX2. The standard library caches the CPUID probe, so this is a
/// load and a bit test.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f`, with AVX2 code generation when [`avx2`] holds. The result is
/// bit-identical to `f()` (see the module docs); only its speed changes.
///
/// Never inlined: each closure then has one baseline copy (here) and one
/// AVX2 copy (in the trampoline), however many paths call it, instead of a
/// baseline copy in every caller and code unit.
#[inline(never)]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `with_avx2` requires that the CPU supports AVX2, and
        // `avx2()` has just read that from CPUID through the standard
        // library's feature detection. The trampoline takes no pointer and
        // has no other precondition.
        return unsafe { with_avx2(f) };
    }
    f()
}

/// Calls `f` in a function compiled with AVX2 enabled, so that an inlined
/// `f` is code-generated for 4-lane registers.
///
/// # Safety
///
/// The CPU running it must support AVX2; otherwise it may execute an
/// illegal instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(test)]
    tests::TRAMPOLINE_ENTRIES.with(|n| n.set(n.get() + 1));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::triangular::{pass_flat, pass_rows, Span, Triangle};
    use crate::matmul::{packed_gemm_rows, t_matmul_rows};
    use crate::matrix::Matrix;
    use std::cell::Cell;

    thread_local! {
        /// Entries into the AVX2 trampoline on this thread.
        pub(super) static TRAMPOLINE_ENTRIES: Cell<usize> = const { Cell::new(0) };
    }

    /// A lost dispatch fails here, not only in a benchmark.
    #[test]
    fn wide_takes_the_avx2_branch_exactly_when_the_cpu_reports_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(avx2(), std::arch::is_x86_feature_detected!("avx2"));
        let entries = || TRAMPOLINE_ENTRIES.with(Cell::get);
        let before = entries();
        assert_eq!(wide(|| 7), 7);
        assert_eq!(entries() - before, usize::from(avx2()));
    }

    /// Values in `[-1, 1)` from a seeded LCG, about one entry in eight
    /// each `+0` and `−0`, and one entry NaN.
    fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut m = Matrix::from_fn(rows, cols, |_, _| {
            let r = next();
            match (r >> 33) % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        });
        let at = (next() >> 33) as usize % m.len();
        m.as_mut_slice()[at] = f64::NAN;
        m
    }

    /// Bit-for-bit equality, except that any NaN matches any NaN: IEEE 754
    /// leaves the payload of a NaN produced from two NaN operands to the
    /// hardware.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn dispatched_t_matmul_matches_the_direct_call() {
        // Crosses the 32 × 128 output tile and the 4-deep inner step.
        for (k, m, n, seed) in [(1, 5, 7, 1), (6, 33, 9, 2), (37, 45, 131, 3)] {
            let a = special_matrix(k, m, seed);
            let b = special_matrix(k, n, seed + 100);
            let mut direct = vec![0.0; m * n];
            t_matmul_rows(&a, &b, 0, &mut direct);
            let mut dispatched = vec![0.0; m * n];
            wide(
                #[inline(always)]
                || t_matmul_rows(&a, &b, 0, &mut dispatched),
            );
            assert!(same_bits(&direct, &dispatched), "{k}x{m}x{n}");
            assert!(same_bits(&direct, a.t_matmul(&b).as_slice()), "{k}x{m}x{n}");
        }
    }

    #[test]
    fn dispatched_packed_gemm_matches_the_direct_call() {
        // Crosses the 8-row panel, the 256-deep k block and the 256-wide
        // column block.
        for (m, k, n, seed) in [(3, 5, 9, 4), (9, 17, 33, 5), (19, 260, 263, 6)] {
            let a = special_matrix(m, k, seed);
            let b = special_matrix(k, n, seed + 100);
            let (mut pack, mut direct) = (Vec::new(), vec![0.0; m * n]);
            packed_gemm_rows(&a, 0, m, k, &b, &mut pack, &mut direct);
            let mut dispatched = vec![0.0; m * n];
            wide(
                #[inline(always)]
                || packed_gemm_rows(&a, 0, m, k, &b, &mut pack, &mut dispatched),
            );
            assert!(same_bits(&direct, &dispatched), "{m}x{k}x{n}");
            let mut public = Matrix::default();
            a.matmul_packed_into(&b, &mut pack, &mut public);
            assert!(same_bits(&direct, public.as_slice()), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn dispatched_triangular_passes_match_the_direct_calls() {
        for (n, cols, seed) in [(1, 3, 7), (5, 9, 8), (23, 37, 9)] {
            let l = special_matrix(n, n, seed);
            let x = special_matrix(n, cols, seed + 100);
            for tri in [Triangle::Lower, Triangle::LowerTransposed] {
                let mut direct = x.as_slice().to_vec();
                pass_flat(&l, tri, &mut direct, cols, Span::Full);
                let mut dispatched = x.as_slice().to_vec();
                wide(
                    #[inline(always)]
                    || pass_flat(&l, tri, &mut dispatched, cols, Span::Full),
                );
                assert!(same_bits(&direct, &dispatched), "flat n={n} cols={cols}");

                let mut banded = x.as_slice().to_vec();
                let mut rows: Vec<&mut [f64]> = banded.chunks_exact_mut(cols).collect();
                wide(
                    #[inline(always)]
                    || pass_rows(&l, tri, &mut rows, Span::Full),
                );
                assert!(same_bits(&direct, &banded), "rows n={n} cols={cols}");
            }
        }
    }
}
