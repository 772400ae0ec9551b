//! Algorithm 1 once: the agent shell of the ELM, OS-ELM and FPGA designs.
//!
//! Every ELM-family design runs the same loop. *Store*: fill buffer `D` with
//! Ñ transitions and train once on it (lines 16–19). *Update*: let the ε₂
//! random-update rule pick later transitions for a sequential update
//! (lines 21–22). Every UPDATE_STEP episodes, copy θ₁ into the target
//! network θ₂ (lines 23–24). [`QNet`] holds that control flow and the state
//! it needs: the configuration view, encoder, ε₁ policy, θ₂, buffer `D`, op
//! counts and workspaces. A [`Datapath`] supplies only what differs:
//!
//! | Datapath | Designs | Initial training | Update phase |
//! |---|---|---|---|
//! | [`Elm<f64>`](elmrl_elm::Elm) | ELM | batch solve on every full `D` | none (refill only) |
//! | [`OsElm<f64>`](elmrl_elm::OsElm) | the four OS-ELM designs | P₀, β₀ | f64 RLS |
//! | `elmrl_fpga::FpgaDatapath` | FPGA | P₀, β₀ on the CPU, then loaded into the PL | Q20 RLS in the PL |
//!
//! Every Q read is one batched evaluation, a single state being a batch of
//! one row: θ₁'s through [`Datapath::q_batch_into`] (`act`, `q_values`,
//! `predict_batch_into`), θ₂'s through [`elm_q_batch_into`] (the Q-targets:
//! one next state at a time in the store phase and the scalar update, the
//! whole tick in [`BatchAgent::observe_batch`]).

use crate::agent::{Agent, Observation, DROPPED_NONFINITE};
use crate::batch::{elm_q_batch_into, BatchAgent, EvalScratch};
use crate::checkpoint::{check_buffer, AgentSnapshot};
use crate::clipping::TargetConfig;
use crate::encoding::StateActionEncoder;
use crate::ops::{OpCounts, OpKind};
use crate::policy::{max_q, ExploitPolicy};
use elmrl_elm::model::ElmModel;
use elmrl_elm::{ModelSnapshot, OsElmConfig};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What the shell reads from a design's configuration.
pub struct ShellConfig {
    /// The design label ([`Agent::name`]).
    pub name: &'static str,
    /// Environment state dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Exploit probability ε₁.
    pub exploit_prob: f64,
    /// Random-update probability ε₂ (`None`: update every step, no draw).
    pub update_prob: Option<f64>,
    /// Target-network synchronisation interval in episodes (0 = never).
    pub target_sync_episodes: usize,
    /// Q-target construction (γ and clipping).
    pub target: TargetConfig,
    /// Widest sequential-update chunk of one batched tick (at least 1).
    pub chunk_cap: usize,
    /// θ₁'s and θ₂'s network; its hidden width Ñ sizes buffer `D`.
    pub elm: OsElmConfig,
}

/// The shell's part of a snapshot payload: θ₂, buffer `D` and the op counts.
pub type Stored = (ModelSnapshot, Vec<Observation>, OpCounts);

/// What one ELM-family design computes with: θ₁, its training and its Q
/// evaluation. The provided methods evaluate [`Datapath::model`] in f64.
pub trait Datapath: Sized {
    /// The design's public configuration.
    type Config;
    /// The snapshot payload: the shell's fields and the datapath's own, in
    /// the payload's key order.
    type State: Serialize + Deserialize;
    /// No update phase: every full buffer `D` retrains from scratch.
    const REFILL_ONLY: bool = false;

    /// The shell's view of `config`.
    fn view(config: &Self::Config) -> ShellConfig;

    /// A fresh, untrained θ₁ (random `α`, `b`; zero `β`).
    fn new(config: &OsElmConfig, rng: &mut SmallRng) -> Self;

    /// Re-initialise after the trainer's reset rule fired.
    fn reset(&mut self, config: &OsElmConfig, rng: &mut SmallRng) {
        *self = Self::new(config, rng);
    }

    /// θ₁ in f64 (the CPU-side copy for the FPGA design).
    fn model(&self) -> &ElmModel<f64>;

    /// Whether an initial training has succeeded.
    fn trained(&self) -> bool;

    /// Train on buffer `D` as the chunk `(X, T)`. Returns whether the
    /// attempt counts as an `init_train` op.
    fn train_initial(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) -> bool;

    /// One sequential update of the scalar path; whether it counts.
    fn update_one(&mut self, _x: &[f64], _t: f64) -> bool {
        unreachable!("a refill-only datapath has no update phase");
    }

    /// One sequential update on a chunk of the batched path.
    fn update_chunk(&mut self, _x: &Matrix<f64>, _t: &Matrix<f64>) {
        unreachable!("a refill-only datapath has no update phase");
    }

    /// θ₁'s `B × A` Q-values of every row of `states`, written to `out`:
    /// the one Q read of the shell.
    fn q_batch_into(
        &mut self,
        encoder: &StateActionEncoder,
        states: &Matrix<f64>,
        scratch: &mut EvalScratch,
        out: &mut Matrix<f64>,
    ) {
        elm_q_batch_into(encoder, self.model(), states, scratch, out);
    }

    /// θ₂ ← θ₁.
    fn sync_target(&self, target: &mut ElmModel<f64>) {
        target.copy_parameters_from(self.model());
    }

    /// [`Agent::memory_footprint_bytes`], given buffer `D`'s word count.
    fn memory_footprint_bytes(&self, buffer_words: usize) -> usize;

    /// The snapshot payload around the shell's part.
    fn capture(&self, stored: Stored) -> Self::State;

    /// Rebuild the datapath from a payload checked against `config`, and
    /// hand back the shell's part.
    fn release(state: Self::State, config: &OsElmConfig) -> Result<(Self, Stored), String>;
}

/// Bytes of an f64 θ₁ and θ₂ pair plus `extra_words` more words.
pub(crate) fn float_footprint(model: &ElmModel<f64>, extra_words: usize) -> usize {
    let (n, nh) = (model.input_dim(), model.hidden_dim());
    (2 * (n * nh + 2 * nh) + extra_words) * std::mem::size_of::<f64>()
}

/// Workspaces of the Q reads and the updates, reused across steps.
#[derive(Clone, Debug, Default)]
struct Workspaces {
    /// Encoded `(state, action)` input of one transition.
    enc: Vec<f64>,
    /// The `B × state_dim` states of one Q read.
    states: Matrix<f64>,
    /// Their `B × A` Q-values.
    q: Matrix<f64>,
    eval: EvalScratch,
    selected: Vec<usize>,
    x: Matrix<f64>,
    t: Matrix<f64>,
}

impl Workspaces {
    /// Stage `state` as the one row of `self.states`.
    fn stage(&mut self, state: &[f64]) {
        self.states.resize_for_overwrite(1, state.len());
        self.states.set_row(0, state);
    }

    /// `max_a Q(next_state, a)` under θ₂ (`target`), read at B = 1. One
    /// next state at a time keeps the evaluator's `(B·A) × Ñ` workspace at
    /// `A × Ñ`, however large buffer `D` is.
    fn max_target_q(
        &mut self,
        encoder: &StateActionEncoder,
        target: &ElmModel<f64>,
        next_state: &[f64],
    ) -> f64 {
        self.stage(next_state);
        elm_q_batch_into(encoder, target, &self.states, &mut self.eval, &mut self.q);
        max_q(self.q.row(0))
    }
}

/// An ELM-family Q-network agent: Algorithm 1 over the datapath `D`.
pub struct QNet<D: Datapath> {
    config: D::Config,
    view: ShellConfig,
    encoder: StateActionEncoder,
    policy: ExploitPolicy,
    pub(crate) datapath: D,
    pub(crate) target: ElmModel<f64>,
    pub(crate) buffer: Vec<Observation>,
    ws: Workspaces,
    ops: OpCounts,
}

impl<D: Datapath> QNet<D> {
    /// Create an agent with a freshly drawn θ₁; θ₂ starts as its copy.
    pub fn new(config: D::Config, rng: &mut SmallRng) -> Self {
        let view = D::view(&config);
        let datapath = D::new(&view.elm, rng);
        Self {
            encoder: StateActionEncoder::new(view.state_dim, view.num_actions),
            policy: ExploitPolicy::new(view.exploit_prob),
            target: datapath.model().clone(),
            buffer: Vec::with_capacity(view.elm.hidden_dim),
            datapath,
            ws: Workspaces::default(),
            ops: OpCounts::new(),
            view,
            config,
        }
    }

    /// The agent configuration.
    pub fn config(&self) -> &D::Config {
        &self.config
    }

    /// The datapath (θ₁ and what trains it).
    pub fn datapath(&self) -> &D {
        &self.datapath
    }

    /// θ₂, the target network.
    pub fn target(&self) -> &ElmModel<f64> {
        &self.target
    }

    /// Whether transitions go to the update phase rather than buffer `D`.
    fn updating(&self) -> bool {
        !D::REFILL_ONLY && self.datapath.trained()
    }

    /// `true` for a finite transition; a non-finite one is dropped and
    /// counted, so it can neither spoil a refill nor reach an update.
    fn finite(obs: &Observation) -> bool {
        let finite = obs.is_finite();
        if !finite {
            elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
        }
        finite
    }

    /// The random-update rule for one transition: one ε₂ draw (none when
    /// the rule is off), then the finiteness check.
    fn gate(&self, obs: &Observation, rng: &mut SmallRng) -> bool {
        let open = |p| rng.gen_range(0.0..1.0) < p;
        self.view.update_prob.is_none_or(open) && Self::finite(obs)
    }

    /// Store phase: push into buffer `D` and train once it holds Ñ.
    fn store(&mut self, obs: &Observation) {
        if !Self::finite(obs) {
            return;
        }
        self.buffer.push(obs.clone());
        if self.buffer.len() < self.view.elm.hidden_dim {
            return;
        }
        let _span = OpKind::InitTrain.span();
        let (x, t) = self.initial_training_chunk();
        let counted = self.datapath.train_initial(&x, &t);
        self.buffer.clear();
        if counted {
            self.ops.add(OpKind::InitTrain, 1);
        }
    }

    /// θ₁'s Q-values of `state` into row 0 of the workspace `q`, through
    /// the datapath's batched read at B = 1.
    fn online_q(&mut self, state: &[f64]) {
        let ws = &mut self.ws;
        ws.stage(state);
        self.datapath
            .q_batch_into(&self.encoder, &ws.states, &mut ws.eval, &mut ws.q);
    }

    /// Buffer `D` as the chunk `(X, T)`: row `i` of `X` is transition `i`'s
    /// encoded `(state, action)`, `T[i]` its target bootstrapped from θ₂.
    fn initial_training_chunk(&mut self) -> (Matrix<f64>, Matrix<f64>) {
        let (ws, n) = (&mut self.ws, self.buffer.len());
        let mut x = Matrix::zeros(n, self.encoder.input_dim());
        let mut t = Matrix::zeros(n, 1);
        for (i, obs) in self.buffer.iter().enumerate() {
            self.encoder
                .encode_into(&obs.state, obs.action, &mut ws.enc);
            x.set_row(i, &ws.enc);
            let max_next = ws.max_target_q(&self.encoder, &self.target, &obs.next_state);
            t[(i, 0)] = self.view.target.target(obs.reward, max_next, obs.done);
        }
        (x, t)
    }

    /// One scalar sequential update, allocation-free at steady state.
    fn update(&mut self, obs: &Observation) {
        let _span = OpKind::SeqTrain.span();
        let ws = &mut self.ws;
        let max_next = ws.max_target_q(&self.encoder, &self.target, &obs.next_state);
        let target_q = self.view.target.target(obs.reward, max_next, obs.done);
        self.encoder
            .encode_into(&obs.state, obs.action, &mut ws.enc);
        if self.datapath.update_one(&ws.enc, target_q) {
            self.ops.add(OpKind::SeqTrain, 1);
        }
    }

    /// The transitions of one tick at `selected`, trained as chunks of at
    /// most `chunk_cap`. The targets come from one batched θ₂ forward over
    /// the whole tick, since they depend only on θ₂.
    fn update_batch(&mut self, rest: &[Observation], selected: &[usize]) {
        let _span = OpKind::SeqTrain.span();
        let (b, cap, encoder) = (selected.len(), self.view.chunk_cap, &self.encoder);
        let ws = &mut self.ws;
        ws.states.resize_zeroed(b, self.view.state_dim);
        for (r, &i) in selected.iter().enumerate() {
            ws.states.set_row(r, &rest[i].next_state);
        }
        elm_q_batch_into(encoder, &self.target, &ws.states, &mut ws.eval, &mut ws.q);
        if b > cap {
            elmrl_telemetry::counter!("core.observe.chunk_splits").inc();
        }
        for (c, chunk) in selected.chunks(cap).enumerate() {
            ws.x.resize_zeroed(chunk.len(), encoder.input_dim());
            ws.t.resize_zeroed(chunk.len(), 1);
            for (r, &i) in chunk.iter().enumerate() {
                let obs = &rest[i];
                encoder.encode_into(&obs.state, obs.action, &mut ws.enc);
                ws.x.set_row(r, &ws.enc);
                let max_next = max_q(ws.q.row(c * cap + r));
                ws.t[(r, 0)] = self.view.target.target(obs.reward, max_next, obs.done);
            }
            self.datapath.update_chunk(&ws.x, &ws.t);
        }
        self.ops.add(OpKind::SeqTrain, b as u64);
    }
}

impl<D: Datapath> Agent for QNet<D> {
    fn name(&self) -> &str {
        self.view.name
    }

    fn hidden_dim(&self) -> usize {
        self.view.elm.hidden_dim
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.datapath.trained());
        let _span = kind.span();
        self.online_q(state);
        self.ops.add(kind, self.view.num_actions as u64);
        self.policy.select(self.ws.q.row(0), rng)
    }

    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        if !self.updating() {
            self.store(obs);
        } else if self.gate(obs, rng) {
            self.update(obs);
        }
    }

    fn end_episode(&mut self, episode_index: usize) {
        let every = self.view.target_sync_episodes;
        if every > 0 && (episode_index + 1) % every == 0 {
            self.datapath.sync_target(&mut self.target);
        }
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        self.datapath.reset(&self.view.elm, rng);
        self.target = self.datapath.model().clone();
        self.buffer.clear();
    }

    fn op_counts(&self) -> &OpCounts {
        &self.ops
    }

    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        self.online_q(state);
        self.ws.q.row(0).to_vec()
    }

    fn memory_footprint_bytes(&self) -> usize {
        let words = self.buffer.capacity() * (2 * self.view.state_dim + 4);
        self.datapath.memory_footprint_bytes(words)
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        let target = ModelSnapshot::capture(&self.target);
        let state = self
            .datapath
            .capture((target, self.buffer.clone(), self.ops.clone()));
        Some(AgentSnapshot::new(self.view.name, &state))
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let state: D::State = snapshot.decode(self.view.name)?;
        let (datapath, (target, buffer, ops)) = D::release(state, &self.view.elm)?;
        target.check_dims(&self.view.elm)?;
        let (dim, actions) = (self.view.state_dim, self.view.num_actions);
        check_buffer("buffer D", &buffer, dim, actions)?;
        self.target = target.restore().map_err(|e| format!("target: {e}"))?;
        self.datapath = datapath;
        // Keep the pre-sized buffer capacity the constructor established.
        self.buffer.clear();
        self.buffer.extend(buffer);
        self.ops = ops;
        Ok(())
    }
}

impl<D: Datapath> BatchAgent for QNet<D> {
    /// One stacked forward through θ₁, bit for bit [`Agent::q_values`].
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(0, 0);
        self.predict_batch_into(states, &mut out);
        out
    }

    /// The stacked forward through the agent's workspaces.
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        let eval = &mut self.ws.eval;
        self.datapath.q_batch_into(&self.encoder, states, eval, out);
    }

    /// One engine tick. The store phase takes transitions one at a time
    /// through [`Agent::observe`] until the initial training has run (at
    /// most once per tick). The rest draw one ε₂ gate each, as the scalar
    /// path would, and the gated ones train through
    /// [`Datapath::update_chunk`], even when only one passes.
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        let mut start = 0;
        while start < batch.len() && !self.updating() {
            self.observe(&batch[start], rng);
            start += 1;
        }
        let rest = &batch[start..];
        let mut selected = std::mem::take(&mut self.ws.selected);
        selected.clear();
        for (i, obs) in rest.iter().enumerate() {
            if self.gate(obs, rng) {
                selected.push(i);
            }
        }
        if !selected.is_empty() {
            self.update_batch(rest, &selected);
        }
        self.ws.selected = selected;
    }
}
