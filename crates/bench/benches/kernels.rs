//! Kernel microbenchmarks (M1): the dense linear-algebra primitives the
//! OS-ELM update is built from.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elmrl_elm::model::ElmModel;
use elmrl_elm::{HiddenActivation, OsElm, OsElmConfig};
use elmrl_fixed::kernels::{matmul_packed_q_into, seq_train_q_into, RlsScratch};
use elmrl_fixed::Q20;
use elmrl_linalg::random::uniform_matrix;
use elmrl_linalg::solve::{inverse_spd, lstsq};
use elmrl_linalg::Matrix;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn bench_kernels(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut group = c.benchmark_group("linalg_kernels");
    for n in [32usize, 64, 128, 256] {
        let a = uniform_matrix::<f64, _>(n, n, -1.0, 1.0, &mut rng);
        let b = uniform_matrix::<f64, _>(n, n, -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("matmul_naive", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b))
        });
        group.bench_with_input(BenchmarkId::new("matmul_blocked", n), &n, |bench, _| {
            bench.iter(|| a.matmul_blocked(&b, 64))
        });
        group.bench_with_input(BenchmarkId::new("matmul_packed", n), &n, |bench, _| {
            bench.iter(|| a.matmul_packed(&b))
        });
        // The steady-state form of the hot paths: workspace reuse, no
        // allocation inside the timed region.
        group.bench_with_input(BenchmarkId::new("matmul_packed_into", n), &n, |bench, _| {
            let mut pack = Vec::new();
            let mut out = Matrix::<f64>::zeros(n, n);
            bench.iter(|| {
                a.matmul_packed_into(&b, &mut pack, &mut out);
                out[(0, 0)]
            })
        });
        let spd = &a.t_matmul(&a) + &Matrix::identity(n).scale(0.5);
        group.bench_with_input(BenchmarkId::new("inverse_spd", n), &n, |bench, _| {
            bench.iter(|| inverse_spd(&spd).unwrap())
        });

        // The Q20 integer twins (PR 7): the packed fixed-point matmul next
        // to its f64 counterpart, and the fused RLS update that replaces
        // matmul + downdate + matmul on the quantized FpgaCore path.
        let aq: Vec<i32> = (0..n * n)
            .map(|_| Q20::from_f64(rng.gen_range(-0.35..0.35)).to_raw())
            .collect();
        let bq: Vec<i32> = (0..n * n)
            .map(|_| Q20::from_f64(rng.gen_range(-0.35..0.35)).to_raw())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("matmul_packed_q20_into", n),
            &n,
            |bench, _| {
                let mut pack = Vec::new();
                let mut out = vec![0i32; n * n];
                bench.iter(|| {
                    matmul_packed_q_into::<20>(n, n, n, &aq, &bq, &mut pack, &mut out);
                    out[0]
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("seq_train_q20", n), &n, |bench, _| {
            let h: Vec<i32> = (0..n)
                .map(|_| Q20::from_f64(rng.gen_range(0.0..0.2)).to_raw())
                .collect();
            let mut p: Vec<i32> = (0..n * n)
                .map(|i| Q20::from_f64(if i % (n + 1) == 0 { 0.5 } else { 0.001 }).to_raw())
                .collect();
            let mut beta = vec![Q20::from_f64(0.01).to_raw(); n];
            let target = vec![Q20::from_f64(0.5).to_raw()];
            let mut ws = RlsScratch::new();
            bench.iter(|| {
                seq_train_q_into::<20>(n, 1, &h, &target, &mut p, &mut beta, &mut ws);
                p[0]
            })
        });
    }
    // The ELM agent's batch solve: Ñ = 64 CartPole-like samples (4 state
    // features plus the action) through a 64-unit ReLU layer. Many units are
    // always on or always off over such a batch, so this H has rank 30, the
    // median rank of the agent's refills.
    let x = Matrix::from_fn(64, 5, |i, j| {
        if j == 4 {
            (i % 2) as f64
        } else {
            rng.gen_range(-0.35..0.35)
        }
    });
    let h = ElmModel::<f64>::new(&OsElmConfig::new(5, 64, 1), &mut rng).hidden(&x);
    let t = uniform_matrix::<f64, _>(64, 1, -1.0, 1.0, &mut rng);
    group.bench_function("lstsq_relu_h_64x64", |bench| {
        bench.iter(|| lstsq(&h, &t, 1e-10).unwrap())
    });
    // OS-ELM initial training at scale: the Gram product `HᵀH` (`t_matmul`
    // of a matrix with itself) and `P₀`'s SPD inverse one size past the
    // loop above.
    for n in [256usize, 512] {
        let h = uniform_matrix::<f64, _>(n, n, -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("gram_t_matmul", n), &n, |bench, _| {
            bench.iter(|| h.t_matmul(&h))
        });
        if n == 512 {
            let spd = &h.t_matmul(&h) + &Matrix::identity(n).scale(0.5);
            group.bench_with_input(BenchmarkId::new("inverse_spd", n), &n, |bench, _| {
                bench.iter(|| inverse_spd(&spd).unwrap())
            });
        }
    }
    // The B-chunk RLS update of the high-dim workload (Ñ = 1024, 65
    // inputs): four Ñ²·B passes over P, tiled by `P_UPDATE_TILE`. Each
    // iteration trains one more chunk, as a run does.
    let n = 1024;
    let cfg = OsElmConfig::new(65, n, 1)
        .with_activation(HiddenActivation::ReLU)
        .with_l2_delta(0.5);
    let mut os = OsElm::<f64>::new(&cfg, &mut rng);
    os.init_train(
        &uniform_matrix::<f64, _>(n, 65, -1.0, 1.0, &mut rng),
        &uniform_matrix::<f64, _>(n, 1, -1.0, 1.0, &mut rng),
    )
    .unwrap();
    for b in [8usize, 16] {
        let x = uniform_matrix::<f64, _>(b, 65, -1.0, 1.0, &mut rng);
        let t = uniform_matrix::<f64, _>(b, 1, -1.0, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("seq_train_batch_1024", b),
            &b,
            |bench, _| bench.iter(|| os.seq_train_batch(&x, &t).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels
}
criterion_main!(benches);
