//! # elmrl-bench
//!
//! Criterion benchmark harness: one benchmark group per table/figure of the
//! paper, kernel microbenchmarks (`kernels`), a cross-environment group
//! (`cross_env`) tracking the generic pipeline's per-trial and per-step cost
//! on every registered workload, a population-serving group
//! (`population_throughput`) comparing batched Q inference against the
//! per-sample loop at B ∈ {1, 8, 32, 128}, and the `telemetry_overhead`
//! writer. The benches use reduced trial counts and episode budgets so that
//! `cargo bench --workspace` completes in minutes; the full paper protocol
//! is driven by the `elmrl-harness` binaries instead.
//!
//! End-to-end numbers come from `perfbench` (`python3 perfbench/run.py`),
//! which times the `cartpole-matrix`, `highdim-1024` and `serve-10k`
//! scenarios and splits their wall time across layers. The `BENCH_PR*.json`
//! files at the repository root are frozen output of earlier bench writers,
//! kept as history.

#![warn(missing_docs)]
#![deny(unsafe_code)]
