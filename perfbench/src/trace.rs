//! The traced run's instrument: a span recorder plus timing decorators that
//! wrap the program's public trait objects.
//!
//! Spans are recorded only from the benchmark's side of each layer boundary
//! — around calls into `Environment`, `Agent`/`BatchAgent` and the serve
//! engine — never inside the program. Each span records its name, start,
//! end, parent and (for serve) the engine round. A span's self time is its
//! duration minus the durations of its direct children, and it is charged
//! to the span's layer; spans without a layer (serve rounds) leave their
//! self time to the unattributed row, which is the traced wall time minus
//! every layer's self time.
//!
//! The recorder is thread-local: every decorated call of the benchmark runs
//! on the main thread (serve runs one worker, whose single-batch waves the
//! engine dispatches inline), while work the program fans out to its own
//! pool stays inside the caller's span.

use elmrl_core::batch::BatchAgent;
use elmrl_core::checkpoint::AgentSnapshot;
use elmrl_core::designs::Design;
use elmrl_core::ops::{OpCounts, OpKind};
use elmrl_core::Agent;
use elmrl_core::Observation;
use elmrl_gym::{ActionSpace, Environment, ObservationSpace, StepOutcome};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layers a traced run splits wall time across.
#[derive(Clone, Copy)]
pub enum Layer {
    GymStep,
    GymReset,
    CoreAct,
    CoreStore,
    ElmBatchSolve,
    ElmInitTrain,
    ElmSeqTrain,
    NnSgd,
    FpgaInitTrain,
    FpgaSeqTrain,
    CoreTrainer,
    ServeSubmit,
    ServePredict,
    ServeCoalesce,
    ServeRespond,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::GymStep,
        Layer::GymReset,
        Layer::CoreAct,
        Layer::CoreStore,
        Layer::ElmBatchSolve,
        Layer::ElmInitTrain,
        Layer::ElmSeqTrain,
        Layer::NnSgd,
        Layer::FpgaInitTrain,
        Layer::FpgaSeqTrain,
        Layer::CoreTrainer,
        Layer::ServeSubmit,
        Layer::ServePredict,
        Layer::ServeCoalesce,
        Layer::ServeRespond,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::GymStep => "gym.step",
            Layer::GymReset => "gym.reset",
            Layer::CoreAct => "core.act",
            Layer::CoreStore => "core.store",
            Layer::ElmBatchSolve => "elm.batch_solve",
            Layer::ElmInitTrain => "elm.init_train",
            Layer::ElmSeqTrain => "elm.seq_train",
            Layer::NnSgd => "nn.sgd",
            Layer::FpgaInitTrain => "fpga.init_train",
            Layer::FpgaSeqTrain => "fpga.seq_train",
            Layer::CoreTrainer => "core.trainer",
            Layer::ServeSubmit => "serve.submit",
            Layer::ServePredict => "serve.predict",
            Layer::ServeCoalesce => "serve.coalesce",
            Layer::ServeRespond => "serve.respond",
        }
    }
}

/// Log-linear histogram of nanosecond durations: exact below 32 ns, then 32
/// linear sub-buckets per power of two, read out at the bucket midpoint
/// (relative error at most 1/64).
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB: u64 = 32;

impl LogHist {
    fn new() -> Self {
        Self {
            counts: vec![0; 64 * SUB as usize],
            total: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let i = if v < SUB {
            v as usize
        } else {
            let e = 63 - u64::from(v.leading_zeros());
            let sub = (v >> (e - 5)) & (SUB - 1);
            ((e - 4) * SUB + sub) as usize
        };
        self.counts[i] += 1;
        self.total += 1;
    }

    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let e = i / SUB + 4;
        let low = (SUB + i % SUB) << (e - 5);
        low + (1u64 << (e - 5)) / 2
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Per-layer aggregates of one traced run.
pub struct LayerStats {
    pub calls: u64,
    pub busy_ns: u64,
    /// Per-call self time.
    pub hist: LogHist,
}

struct Open {
    id: u32,
    start: u64,
    child_ns: u64,
    episode: bool,
}

/// One closed span as written to the trace file.
struct SpanRecord {
    start: u64,
    end: u64,
    parent: u32,
    round: u32,
    name: &'static str,
}

const NO_SPAN: u32 = u32::MAX;
/// Raw spans kept per run (about 10 MiB); later spans still count in the
/// layer aggregates but are not written out.
const SPAN_CAPACITY: usize = 1 << 18;

/// Everything one traced pass recorded.
pub struct Recorder {
    epoch: Instant,
    pub layers: Vec<LayerStats>,
    /// Batch rows evaluated by `serve.predict`.
    pub predict_rows: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    pub dropped: u64,
    round: u32,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            layers: Layer::ALL
                .iter()
                .map(|_| LayerStats {
                    calls: 0,
                    busy_ns: 0,
                    hist: LogHist::new(),
                })
                .collect(),
            predict_rows: 0,
            stack: Vec::with_capacity(64),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            round: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, episode: bool) {
        let id = if self.spans.len() < SPAN_CAPACITY {
            let parent = self.stack.last().map_or(NO_SPAN, |o| o.id);
            self.spans.push(SpanRecord {
                start: 0,
                end: 0,
                parent,
                round: self.round,
                name: "",
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_SPAN
        };
        self.stack.push(Open {
            id,
            start: 0,
            child_ns: 0,
            episode,
        });
        let start = self.now();
        self.stack.last_mut().expect("pushed above").start = start;
    }

    fn close(&mut self, end: u64, name: &'static str, layer: Option<Layer>) {
        let open = self.stack.pop().expect("close without a matching open");
        let dur = end.saturating_sub(open.start);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(layer) = layer {
            let stats = &mut self.layers[layer as usize];
            stats.calls += 1;
            stats.busy_ns += self_ns;
            stats.hist.record(self_ns);
        }
        if open.id != NO_SPAN {
            let rec = &mut self.spans[open.id as usize];
            rec.start = open.start;
            rec.end = end;
            rec.name = name;
        }
    }

    /// Total self time charged to layers.
    pub fn busy_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.busy_ns).sum()
    }

    /// Write the raw spans as CSV (`id,parent,round,name,start_ns,end_ns`;
    /// parent is empty for roots).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,round,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.round, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|cell| {
        f(cell
            .borrow_mut()
            .as_mut()
            .expect("a traced call ran outside trace::start/finish"))
    })
}

/// Begin recording on this thread.
pub fn start() {
    RECORDER.with(|cell| *cell.borrow_mut() = Some(Recorder::new()));
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Recorder {
    RECORDER.with(|cell| {
        cell.borrow_mut()
            .take()
            .expect("trace::start was not called")
    })
}

/// Open a span; it is named when closed.
pub fn open() {
    with(|r| r.open(false));
}

/// Close the innermost open span, charging its self time to `layer`.
pub fn close(name: &'static str, layer: Option<Layer>) {
    with(|r| {
        let end = r.now();
        r.close(end, name, layer)
    });
}

/// Time `f` as one span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    open();
    let out = f();
    close(layer.name(), Some(layer));
    out
}

/// Tag the spans opened from now on with a serve round.
pub fn set_round(round: u64) {
    with(|r| r.round = round as u32);
}

/// Count rows evaluated by `serve.predict`.
fn add_predict_rows(rows: usize) {
    with(|r| r.predict_rows += rows as u64);
}

/// Close the episode span at the top of the stack, if there is one.
pub fn end_episode() {
    with(|r| {
        if r.stack.last().is_some_and(|o| o.episode) {
            let end = r.now();
            r.close(end, "episode", Some(Layer::CoreTrainer));
        }
    });
}

fn begin_episode() {
    end_episode();
    with(|r| r.open(true));
}

/// An [`Environment`] whose `step`/`reset` calls are timed. With `episodes`
/// set, each `reset` also closes the previous episode span and opens the
/// next, so the scalar trainer's calls nest as trial → episode → call.
pub struct TracedEnv {
    inner: Box<dyn Environment>,
    episodes: bool,
}

impl TracedEnv {
    pub fn new(inner: Box<dyn Environment>, episodes: bool) -> Self {
        Self { inner, episodes }
    }
}

impl Environment for TracedEnv {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn observation_space(&self) -> ObservationSpace {
        self.inner.observation_space()
    }
    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }
    fn observation_dim(&self) -> usize {
        self.inner.observation_dim()
    }
    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }
    fn max_episode_steps(&self) -> usize {
        self.inner.max_episode_steps()
    }
    fn reset(&mut self, rng: &mut SmallRng) -> Vec<f64> {
        if self.episodes {
            begin_episode();
        }
        span(Layer::GymReset, || self.inner.reset(rng))
    }
    fn step(&mut self, action: usize, rng: &mut SmallRng) -> StepOutcome {
        span(Layer::GymStep, || self.inner.step(action, rng))
    }
    fn solved_threshold(&self) -> Option<f64> {
        self.inner.solved_threshold()
    }
    fn save_state(&self) -> Option<Vec<f64>> {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

/// Which layers an agent's training calls belong to.
#[derive(Clone, Copy, PartialEq)]
pub enum Family {
    Elm,
    OsElm,
    Dqn,
    Fpga,
}

impl Family {
    pub fn of(design: Design) -> Self {
        match design {
            Design::Elm => Family::Elm,
            Design::Dqn => Family::Dqn,
            Design::Fpga => Family::Fpga,
            Design::OsElm | Design::OsElmL2 | Design::OsElmLipschitz | Design::OsElmL2Lipschitz => {
                Family::OsElm
            }
        }
    }
}

/// The training counters an `observe` call is attributed by.
fn training_counts(ops: &OpCounts) -> [u64; 3] {
    [
        ops.count(OpKind::InitTrain),
        ops.count(OpKind::SeqTrain),
        ops.count(OpKind::TrainDqn),
    ]
}

/// An agent whose every call is forwarded to the wrapped agent — including
/// the trait defaults agents override — with the per-step calls timed.
pub struct TracedAgent {
    inner: Box<dyn BatchAgent + Send>,
    family: Family,
}

impl TracedAgent {
    pub fn new(inner: Box<dyn BatchAgent + Send>, family: Family) -> Self {
        Self { inner, family }
    }

    /// Time one observe-style call and charge it by which public op
    /// counter it moved (the counters are read outside the span).
    fn observed(&mut self, f: impl FnOnce(&mut dyn BatchAgent)) {
        let before = training_counts(self.inner.op_counts());
        open();
        f(self.inner.as_mut());
        let end = with(|r| r.now());
        let after = training_counts(self.inner.op_counts());
        let layer = match (self.family, after != before) {
            (_, false) => Layer::CoreStore,
            (Family::Elm, true) => Layer::ElmBatchSolve,
            (Family::Dqn, true) => Layer::NnSgd,
            (Family::OsElm, true) if after[0] != before[0] => Layer::ElmInitTrain,
            (Family::OsElm, true) => Layer::ElmSeqTrain,
            (Family::Fpga, true) if after[0] != before[0] => Layer::FpgaInitTrain,
            (Family::Fpga, true) => Layer::FpgaSeqTrain,
        };
        with(|r| r.close(end, layer.name(), Some(layer)));
    }
}

impl Agent for TracedAgent {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn hidden_dim(&self) -> usize {
        self.inner.hidden_dim()
    }
    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        span(Layer::CoreAct, || self.inner.act(state, rng))
    }
    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        self.observed(|a| a.observe(obs, rng));
    }
    fn end_episode(&mut self, episode_index: usize) {
        self.inner.end_episode(episode_index)
    }
    fn reset(&mut self, rng: &mut SmallRng) {
        self.inner.reset(rng)
    }
    fn op_counts(&self) -> &OpCounts {
        self.inner.op_counts()
    }
    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        self.inner.q_values(state)
    }
    fn memory_footprint_bytes(&self) -> usize {
        self.inner.memory_footprint_bytes()
    }
    fn snapshot(&self) -> Option<AgentSnapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        self.inner.restore(snapshot)
    }
}

impl BatchAgent for TracedAgent {
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        add_predict_rows(states.rows());
        span(Layer::ServePredict, || self.inner.predict_batch(states))
    }
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        add_predict_rows(states.rows());
        span(Layer::ServePredict, || {
            self.inner.predict_batch_into(states, out)
        })
    }
    fn act_batch_greedy(&mut self, states: &Matrix<f64>) -> Vec<usize> {
        add_predict_rows(states.rows());
        span(Layer::ServePredict, || self.inner.act_batch_greedy(states))
    }
    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        span(Layer::CoreAct, || self.inner.act_row(state_row, rng))
    }
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        self.observed(|a| a.observe_batch(batch, rng));
    }
}
