//! # elmrl-bench
//!
//! Criterion benchmarks on the in-tree `criterion` shim: the kernel
//! microbenchmarks (`kernels`, among them the Ñ = 1024 B-chunk RLS update),
//! a population-serving group (`population_throughput`) comparing batched Q
//! inference against the per-sample loop at B ∈ {1, 8, 32, 128}, and the
//! `telemetry_overhead` writer.
//!
//! End-to-end numbers come from `perfbench` (`python3 perfbench/run.py`),
//! which times the `cartpole-matrix`, `highdim-1024` and `serve-10k`
//! scenarios and splits their wall time across layers. The `BENCH_PR*.json`
//! files at the repository root are frozen output of earlier bench writers,
//! kept as history.

#![warn(missing_docs)]
#![deny(unsafe_code)]
