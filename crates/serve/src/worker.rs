//! Agent workers: one warmed policy replica plus preallocated batch scratch.
//!
//! Every worker owns an identical copy of the served policy (same design,
//! same weights — see [`build_workers`]), a `B × obs_dim` staging matrix for
//! the batch it was assigned, a `B × A` Q output buffer, and the per-row
//! greedy actions. Because the policy is frozen during serving (pure
//! inference, no RNG draws) and every worker's weights are bit-identical,
//! *which* worker executes a batch can never change a response — the
//! property the `--workers`-invariance determinism test pins.

use crate::engine::Request;
use elmrl_core::batch::BatchAgent;
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::policy::argmax;
use elmrl_core::trainer::{Trainer, TrainerConfig};
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::{EnvSpec, VecEnv};
use elmrl_linalg::Matrix;
use elmrl_population::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Seed-stream tag of the worker policy (construction + warm-up training).
/// Offset keeps serve streams disjoint from the population replica layout
/// (streams `2i`/`2i+1`) at any realistic replica count.
const WORKER_STREAM: u64 = 0x5345_5256_0000_0000;
/// Seed-stream tag of per-session RNGs: session `i` draws from
/// `SESSION_STREAM_BASE + i`.
pub(crate) const SESSION_STREAM_BASE: u64 = 0x5345_5353_0000_0000;

/// One agent worker: a policy replica plus its preallocated batch scratch.
pub struct Worker {
    agent: Box<dyn BatchAgent + Send>,
    /// `B × obs_dim` staging for the assigned batch (capacity reused).
    batch: Matrix<f64>,
    /// `B × A` Q output of the last dispatch (capacity reused).
    q: Matrix<f64>,
    /// The requests of the assigned batch, in dispatch order.
    tickets: Vec<Request>,
    /// Greedy action per batch row (capacity reused).
    actions: Vec<usize>,
}

impl Worker {
    /// Wrap a warmed agent with empty scratch sized for `max_batch`.
    pub fn new(agent: Box<dyn BatchAgent + Send>, max_batch: usize, obs_dim: usize) -> Self {
        Self {
            agent,
            batch: Matrix::zeros(max_batch.max(1), obs_dim),
            q: Matrix::zeros(1, 1),
            tickets: Vec::with_capacity(max_batch.max(1)),
            actions: Vec::with_capacity(max_batch.max(1)),
        }
    }

    /// Start assembling a batch of exactly `size` rows.
    pub(crate) fn begin_batch(&mut self, size: usize, obs_dim: usize) {
        self.batch.resize_zeroed(size, obs_dim);
        self.tickets.clear();
        self.actions.clear();
    }

    /// Stage one request's observation as the next batch row.
    pub(crate) fn push_row(&mut self, request: Request, obs: &[f64]) {
        let row = self.tickets.len();
        self.batch.row_mut(row).copy_from_slice(obs);
        self.tickets.push(request);
    }

    /// Evaluate the staged batch: one [`BatchAgent::predict_batch_into`]
    /// pass plus a greedy argmax per row. Allocation-free once the scratch
    /// has seen the steady-state batch shape.
    pub(crate) fn run_batch(&mut self) {
        debug_assert_eq!(self.batch.rows(), self.tickets.len());
        self.agent.predict_batch_into(&self.batch, &mut self.q);
        self.actions.clear();
        for i in 0..self.q.rows() {
            self.actions.push(argmax(self.q.row(i)));
        }
    }

    /// The `(request, action)` pairs of the last [`Worker::run_batch`].
    pub(crate) fn results(&self) -> impl Iterator<Item = (&Request, usize)> {
        self.tickets.iter().zip(self.actions.iter().copied())
    }
}

/// Build the served policy for a design (the population engine's factory
/// split: `Design::Fpga` lives in `elmrl-fpga`, everything else behind
/// [`Design::build_batch`]).
fn build_agent(
    design: Design,
    spec: &EnvSpec,
    hidden_dim: usize,
    rng: &mut SmallRng,
) -> Box<dyn BatchAgent + Send> {
    match design {
        Design::Fpga => Box::new(FpgaAgent::new(
            FpgaAgentConfig::for_workload(spec, hidden_dim),
            rng,
        )),
        software => {
            let config = DesignConfig::for_workload(spec, hidden_dim);
            software.build_batch(&config, rng)
        }
    }
}

/// Build `workers` bit-identical policy replicas: each is constructed from
/// the same [`split_seed`] stream and warmed by the same `warmup_episodes`
/// training run, so every replica ends at exactly the same weights (the
/// whole pipeline is deterministic in its seeds). Warm-up cost is per
/// worker but independent of the session count.
pub fn build_workers(
    design: Design,
    spec: &EnvSpec,
    hidden_dim: usize,
    workers: usize,
    max_batch: usize,
    seed: u64,
    warmup_episodes: usize,
) -> Vec<Worker> {
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: warmup_episodes,
        reset_after_episodes: None,
        stop_when_solved: false,
        ..TrainerConfig::for_workload(spec)
    });
    (0..workers)
        .map(|_| {
            let mut build_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM));
            let mut agent = build_agent(design, spec, hidden_dim, &mut build_rng);
            if warmup_episodes > 0 {
                let mut train_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM + 1));
                let mut vec_env = VecEnv::from_spec(spec, 1);
                trainer.run_vec(agent.as_mut(), &mut vec_env, &mut train_rng);
            }
            Worker::new(agent, max_batch, spec.observation_dim)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_gym::Workload;

    #[test]
    fn warmed_workers_are_bit_identical() {
        let spec = Workload::CartPole.spec();
        let mut workers = build_workers(Design::OsElmL2Lipschitz, &spec, 16, 2, 4, 7, 3);
        let states = Matrix::from_fn(3, spec.observation_dim, |i, j| {
            0.05 * (i as f64 + 1.0) - 0.02 * j as f64
        });
        let qs: Vec<Matrix<f64>> = workers
            .iter_mut()
            .map(|w| w.agent.predict_batch(&states))
            .collect();
        assert_eq!(qs[0].as_slice(), qs[1].as_slice());
    }

    #[test]
    fn run_batch_matches_scalar_argmax() {
        let spec = Workload::CartPole.spec();
        let mut workers = build_workers(Design::OsElmL2Lipschitz, &spec, 16, 1, 8, 7, 2);
        let w = &mut workers[0];
        let obs = vec![0.1, -0.2, 0.03, 0.4];
        w.begin_batch(2, spec.observation_dim);
        w.push_row(
            Request {
                ticket: 1,
                session: 0,
                enqueued_us: 0,
            },
            &obs,
        );
        w.push_row(
            Request {
                ticket: 2,
                session: 1,
                enqueued_us: 0,
            },
            &obs,
        );
        w.run_batch();
        let results: Vec<(u64, usize)> = w.results().map(|(r, a)| (r.ticket, a)).collect();
        assert_eq!(results.len(), 2);
        // Identical rows must produce identical actions.
        assert_eq!(results[0].1, results[1].1);
        let expected = argmax(w.agent.predict_batch(&Matrix::from_rows(&[obs])).row(0));
        assert_eq!(results[0].1, expected);
    }
}
