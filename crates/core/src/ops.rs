//! Per-operation counters behind the execution-time breakdowns of
//! Figures 5 and 6.
//!
//! The paper splits the time to complete CartPole into seven operation
//! classes: `init_train`, `seq_train`, `predict_init`, `predict_seq` for the
//! ELM/OS-ELM designs and `train_DQN`, `predict_1`, `predict_32` for the DQN
//! baseline. Every agent in this crate counts how many times it performs each
//! class in an [`OpCounts`]; the harness turns those counts into modeled
//! Cortex-A9 / FPGA seconds. The counts are a pure function of the seed, so
//! they are what agent snapshots and [`crate::trainer::TrainingResult`]
//! carry.
//!
//! Host latency is the telemetry registry's job: each counted call also
//! opens [`OpKind::span`] over the `op.<label>` histogram, which records one
//! sample per call (and one chrome-trace event with tracing on). While
//! telemetry is disabled the span takes no timestamp, so an agent reads no
//! clock at all.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The operation classes of Figures 5 and 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// OS-ELM/ELM prediction performed before initial training completed.
    PredictInit,
    /// OS-ELM/ELM prediction performed after initial training.
    PredictSeq,
    /// ELM/OS-ELM initial (batch) training.
    InitTrain,
    /// OS-ELM sequential (batch-size-1) training step.
    SeqTrain,
    /// One DQN gradient step (mini-batch backprop + Adam).
    TrainDqn,
    /// DQN forward pass with batch size 1 (action selection).
    Predict1,
    /// DQN forward pass with batch size 32 (target computation on a batch).
    Predict32,
}

impl OpKind {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::PredictInit => "predict_init",
            OpKind::PredictSeq => "predict_seq",
            OpKind::InitTrain => "init_train",
            OpKind::SeqTrain => "seq_train",
            OpKind::TrainDqn => "train_DQN",
            OpKind::Predict1 => "predict_1",
            OpKind::Predict32 => "predict_32",
        }
    }

    /// All operation kinds, in the order the paper lists them.
    pub fn all() -> [OpKind; 7] {
        [
            OpKind::SeqTrain,
            OpKind::PredictSeq,
            OpKind::InitTrain,
            OpKind::PredictInit,
            OpKind::TrainDqn,
            OpKind::Predict1,
            OpKind::Predict32,
        ]
    }

    /// The prediction class of an ELM-family network: `predict_seq` once
    /// its initial training has run, `predict_init` before.
    pub fn predict(trained: bool) -> OpKind {
        if trained {
            OpKind::PredictSeq
        } else {
            OpKind::PredictInit
        }
    }

    /// The registry name of this class's latency histogram (`op.<label>`).
    pub fn metric_name(self) -> &'static str {
        match self {
            OpKind::PredictInit => "op.predict_init",
            OpKind::PredictSeq => "op.predict_seq",
            OpKind::InitTrain => "op.init_train",
            OpKind::SeqTrain => "op.seq_train",
            OpKind::TrainDqn => "op.train_DQN",
            OpKind::Predict1 => "op.predict_1",
            OpKind::Predict32 => "op.predict_32",
        }
    }

    /// Time one call of this class into its `op.<label>` histogram: the
    /// guard records on drop. `None` while telemetry is disabled, so no
    /// timestamp is taken and the histogram is not even registered.
    #[inline]
    #[must_use = "the span records when the guard drops; binding it to `_` drops immediately"]
    pub fn span(self) -> Option<elmrl_telemetry::SpanGuard<'static>> {
        elmrl_telemetry::enabled().then(|| op_histogram(self).span())
    }
}

/// The global latency histogram of an operation class. Handles are resolved
/// once and cached (index = declaration order of [`OpKind`]), so the hot
/// span path never touches the registry lock.
fn op_histogram(kind: OpKind) -> &'static elmrl_telemetry::Histogram {
    static TABLE: OnceLock<[&'static elmrl_telemetry::Histogram; 7]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        [
            OpKind::PredictInit,
            OpKind::PredictSeq,
            OpKind::InitTrain,
            OpKind::SeqTrain,
            OpKind::TrainDqn,
            OpKind::Predict1,
            OpKind::Predict32,
        ]
        .map(|k| elmrl_telemetry::histogram(k.metric_name()))
    });
    table[kind as usize]
}

/// How many times each operation class occurred.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    counts: BTreeMap<OpKind, u64>,
}

impl OpCounts {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` occurrences of `kind` (a batched call counts its rows).
    pub fn add(&mut self, kind: OpKind, n: u64) {
        *self.counts.entry(kind).or_insert(0) += n;
    }

    /// Number of occurrences of `kind`.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total number of recorded operations.
    pub fn total_count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merge another counter set into this one (used when aggregating trials).
    pub fn merge(&mut self, other: &OpCounts) {
        for (&k, &v) in &other.counts {
            self.add(k, v);
        }
    }

    /// Reset all counters to zero.
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Iterate `(kind, count)` over the classes that occurred, in
    /// declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(OpKind::SeqTrain.label(), "seq_train");
        assert_eq!(OpKind::TrainDqn.label(), "train_DQN");
        assert_eq!(OpKind::Predict32.label(), "predict_32");
        assert_eq!(OpKind::all().len(), 7);
    }

    #[test]
    fn record_and_query() {
        let mut ops = OpCounts::new();
        ops.add(OpKind::SeqTrain, 1);
        ops.add(OpKind::SeqTrain, 1);
        ops.add(OpKind::Predict1, 1);
        assert_eq!(ops.count(OpKind::SeqTrain), 2);
        assert_eq!(ops.count(OpKind::Predict1), 1);
        assert_eq!(ops.count(OpKind::InitTrain), 0);
        assert_eq!(ops.total_count(), 3);
    }

    #[test]
    fn record_n_counts_multiple() {
        let mut ops = OpCounts::new();
        ops.add(OpKind::Predict32, 4);
        assert_eq!(ops.count(OpKind::Predict32), 4);
        ops.add(OpKind::Predict32, 3);
        assert_eq!(ops.count(OpKind::Predict32), 7);
        assert_eq!(ops.total_count(), 7);
    }

    #[test]
    fn merge_and_clear() {
        let mut a = OpCounts::new();
        a.add(OpKind::InitTrain, 1);
        let mut b = OpCounts::new();
        b.add(OpKind::InitTrain, 1);
        b.add(OpKind::SeqTrain, 1);
        a.merge(&b);
        assert_eq!(a.count(OpKind::InitTrain), 2);
        assert_eq!(a.count(OpKind::SeqTrain), 1);
        a.clear();
        assert_eq!(a.total_count(), 0);
    }

    #[test]
    fn span_times_one_call_into_the_op_histogram() {
        let kind = OpKind::InitTrain;
        let h = elmrl_telemetry::histogram(kind.metric_name());
        // Disabled: the span is inert. No test in this binary turns
        // telemetry on except this one, so the count must not move.
        let before = h.count();
        drop(kind.span());
        assert_eq!(h.count(), before);

        // Enabled: one sample per span, and one trace event with tracing
        // on. ≥ rather than ==: other test threads' agents may record into
        // the same histogram while the flag is up.
        elmrl_telemetry::enable_tracing(1024);
        let before = h.count();
        drop(kind.span());
        let after = h.count();
        let trace = elmrl_telemetry::trace::chrome_trace_json();
        elmrl_telemetry::set_enabled(false);
        assert!(after > before, "an enabled span must record a sample");
        assert!(
            trace.contains("\"name\": \"op.init_train\""),
            "an enabled span must emit a trace event"
        );
    }

    #[test]
    fn iter_lists_occurred_kinds() {
        let mut ops = OpCounts::new();
        ops.add(OpKind::SeqTrain, 2);
        ops.add(OpKind::PredictSeq, 3);
        let seen: Vec<(OpKind, u64)> = ops.iter().collect();
        assert_eq!(seen, vec![(OpKind::PredictSeq, 3), (OpKind::SeqTrain, 2)]);
    }
}
