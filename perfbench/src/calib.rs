//! Host-speed calibration.
//!
//! On a shared host the same code runs at different speeds from one minute
//! to the next: neighbours on the sibling hyperthread, in the shared cache
//! and on the package's power budget slow every instruction, and no amount
//! of averaging inside one run removes a slow spell that outlasts it. So
//! the benchmark times a fixed reference kernel — code of its own, which no
//! change to the program touches — on the same thread right next to each
//! unit of measured work, and scales the unit's time by how much slower or
//! faster than nominal the reference ran at that moment. A change to the
//! program moves the calibrated figure exactly as it moves the raw one; a
//! change in host speed moves both the unit and the reference, and cancels.
//!
//! The kernel mixes what the calibrated workloads do: small dense `f64`
//! products (the Ñ = 64 Q networks), and a scalar, branchy pass with
//! `sin`/`cos` over a working set of many small states (environment steps
//! across sessions).

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on a quiet host (a two-core Xeon VM, in its
/// fast spells), so calibrated figures read in the units of a quiet host.
pub const NOMINAL_S: f64 = 2.8e-4;

const N: usize = 64;
const COLS: usize = 8;
const PRODUCTS: usize = 12;
const STATES: usize = 8192;
/// Timed passes per slowdown reading.
const SAMPLES: usize = 3;

/// The reference kernel's fixed inputs.
struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    states: Vec<[f64; 4]>,
}

impl Reference {
    fn new() -> Self {
        // A fixed LCG, so every run computes on the same numbers.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Self {
            a: (0..N * N).map(|_| next()).collect(),
            b: (0..N * COLS).map(|_| next()).collect(),
            c: vec![0.0; N * COLS],
            states: (0..STATES)
                .map(|_| [next() * 0.1, next() * 0.1, next() * 0.1, next() * 0.1])
                .collect(),
        }
    }

    /// One pass of the kernel; returns a checksum so nothing is elided.
    fn pass(&mut self) -> f64 {
        let (a, b, c) = (black_box(&self.a), black_box(&self.b), &mut self.c);
        for _ in 0..PRODUCTS {
            for i in 0..N {
                let row = &a[i * N..(i + 1) * N];
                for j in 0..COLS {
                    let mut acc = 0.0;
                    for (k, &v) in row.iter().enumerate() {
                        acc += v * b[k * COLS + j];
                    }
                    c[i * COLS + j] = 0.5 * c[i * COLS + j] + acc;
                }
            }
        }
        let mut sum = c.iter().sum::<f64>();
        for s in black_box(&mut self.states).iter_mut() {
            let push = if s[2] + 0.1 * s[3] > 0.0 { -1.0 } else { 1.0 };
            let (sin, cos) = s[2].sin_cos();
            let acc = push * 10.0 + 0.05 * s[3] * s[3] * sin;
            let theta = (9.8 * sin - cos * acc) / (4.0 / 3.0 - 0.1 * cos * cos);
            s[0] += 0.02 * s[1];
            s[1] += 0.02 * acc;
            s[2] += 0.02 * s[3];
            s[3] += 0.02 * theta;
            if s[2].abs() > 0.21 || s[0].abs() > 2.4 {
                *s = [0.01 * sum.fract(), 0.0, -0.05 * s[2], 0.0];
            }
            sum += s[0];
        }
        sum
    }

    /// How many times slower than nominal the host runs right now: the
    /// median of [`SAMPLES`] timed passes over [`NOMINAL_S`].
    fn slowdown(&mut self) -> f64 {
        let times: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                black_box(self.pass());
                start.elapsed().as_secs_f64()
            })
            .collect();
        crate::median(&times) / NOMINAL_S
    }
}

/// Reads the host's slowdown between units of measured work.
pub struct Calibrator {
    reference: Option<Reference>,
    last: f64,
}

impl Calibrator {
    /// A calibrator that reads the host's speed now and at every mark.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let last = reference.slowdown();
        println!("# calibration: host slowdown at start {last:.4} (reference pass nominal {NOMINAL_S} s)");
        Self {
            reference: Some(reference),
            last,
        }
    }

    /// A calibrator that runs nothing and reads every slowdown as 1 (for
    /// the traced run, whose figures are not calibrated).
    pub fn off() -> Self {
        Self {
            reference: None,
            last: 1.0,
        }
    }

    /// The host's slowdown over the interval since the previous mark: the
    /// mean of the readings at either end. Divide the interval's measured
    /// seconds by it to get nominal-host seconds.
    pub fn mark(&mut self) -> f64 {
        let Some(reference) = self.reference.as_mut() else {
            return 1.0;
        };
        let now = reference.slowdown();
        let over = 0.5 * (self.last + now);
        self.last = now;
        over
    }
}
