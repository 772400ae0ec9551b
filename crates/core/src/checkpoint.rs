//! Checkpointing: versioned, serialisable snapshots of a complete training
//! run.
//!
//! The paper's platform targets long-running on-device training, where a
//! power cycle must not cost the accumulated learning. A checkpoint captures
//! *everything* the trainer's determinism contract depends on — the agent's
//! learnable state (α/β/P, DQN weights + replay history), the bookkeeping
//! counters, the episode statistics, and the exact cursor of every RNG
//! stream — so a run saved at episode `N` and resumed continues **bit for
//! bit** identically to one that never stopped. The invariance is enforced
//! end-to-end by the harness resume-equivalence tests and a golden-`cmp` CI
//! job, the same way shard/thread invariance already is.
//!
//! Checkpoints are taken at episode boundaries only (for vectorized runs: at
//! the end of a tick in which an episode completed), which keeps the saved
//! surface tractable — mid-episode environment physics still need saving for
//! vectorized runs, where the other slots are mid-episode, and
//! [`SlotCheckpoint`] carries exactly that.

use crate::agent::{Agent, Observation};
use elmrl_gym::EpisodeStats;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize, Value};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Version tag written into every snapshot/checkpoint. Bump when the schema
/// changes shape; loaders reject mismatched versions instead of
/// misinterpreting old data.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// A versioned, design-tagged snapshot of an agent's complete mutable state.
///
/// The payload is an opaque [`Value`] produced by the agent itself (each
/// design serialises its own internal state struct), wrapped with the schema
/// version and the design name so a checkpoint can never be restored into the
/// wrong agent type silently.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AgentSnapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`] at capture time).
    pub version: u32,
    /// The design name of the agent that produced the snapshot
    /// ([`Agent::name`]); checked on restore.
    pub design: String,
    /// The design-specific state payload.
    pub state: Value,
}

impl AgentSnapshot {
    /// Wrap a design-specific state struct into a tagged snapshot.
    pub fn new<S: Serialize>(design: &str, state: &S) -> Self {
        Self {
            version: SNAPSHOT_SCHEMA_VERSION,
            design: design.to_owned(),
            state: state.to_value(),
        }
    }

    /// Decode the payload for the named design, rejecting version or design
    /// mismatches with a descriptive error.
    pub fn decode<S: serde::Deserialize>(&self, design: &str) -> Result<S, String> {
        if self.version != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema version {} does not match supported version {}",
                self.version, SNAPSHOT_SCHEMA_VERSION
            ));
        }
        if self.design != design {
            return Err(format!(
                "snapshot was captured from design `{}`, cannot restore into `{}`",
                self.design, design
            ));
        }
        S::from_value(&self.state).map_err(|e| format!("snapshot payload: {e}"))
    }
}

/// Capture an agent snapshot or explain why the design cannot provide one.
pub fn snapshot_agent<A: Agent + ?Sized>(agent: &A) -> Result<AgentSnapshot, String> {
    agent
        .snapshot()
        .ok_or_else(|| format!("design `{}` does not support checkpointing", agent.name()))
}

/// The per-slot state of a vectorized run ([`crate::Trainer::run_vec`]):
/// everything slot `j` needs to continue its current (possibly mid-flight)
/// episode.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlotCheckpoint {
    /// xoshiro256++ state of the slot's private RNG stream (4 words).
    pub rng: Vec<u64>,
    /// The slot environment's internal state ([`elmrl_gym::Environment::save_state`]).
    pub env_state: Vec<f64>,
    /// Current observation of the slot (post-auto-reset).
    pub observation: Vec<f64>,
    /// Return accumulated so far in the slot's current episode.
    pub episode_return: f64,
    /// Whether the slot is still running episodes.
    pub active: bool,
}

/// A complete trainer checkpoint: agent + counters + statistics + RNG
/// cursors (+ per-slot state for vectorized runs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`] at capture time).
    pub version: u32,
    /// Episodes completed so far.
    pub episodes_run: usize,
    /// Environment steps taken so far.
    pub total_steps: usize,
    /// How many times the reset rule has fired.
    pub resets: usize,
    /// Episodes since the last reset-rule firing.
    pub episodes_since_reset: usize,
    /// The episode at which the run solved the task, if it has.
    pub solved_at_episode: Option<usize>,
    /// Per-episode returns and moving averages accumulated so far.
    pub stats: EpisodeStats,
    /// The agent's complete mutable state.
    pub agent: AgentSnapshot,
    /// xoshiro256++ state of the master RNG stream (4 words).
    pub rng: Vec<u64>,
    /// Scalar-run environment carry-over state, when the environment exposes
    /// one. `None` for environments that are fully rebuilt by `reset` (all of
    /// the paper's workloads) — the next episode's `reset` draws from the
    /// restored master RNG either way.
    pub env_state: Option<Vec<f64>>,
    /// Per-slot state for vectorized runs; `None` for scalar runs.
    pub slots: Option<Vec<SlotCheckpoint>>,
}

impl RunCheckpoint {
    /// Serialise to a JSON string (single line, stable field order).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialise from a JSON string, rejecting schema-version mismatches.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ckpt: Self = serde_json::from_str(s).map_err(|e| format!("checkpoint JSON: {e}"))?;
        if ckpt.version != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "checkpoint schema version {} does not match supported version {}",
                ckpt.version, SNAPSHOT_SCHEMA_VERSION
            ));
        }
        Ok(ckpt)
    }

    /// Write the checkpoint to a file as JSON, atomically ([`write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let _span = elmrl_telemetry::hist!("checkpoint.save").span();
        let json = self
            .to_json()
            .map_err(|e| format!("serialising checkpoint: {e}"))?;
        write_atomic(path, json.as_bytes()).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Read a checkpoint back from a JSON file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let _span = elmrl_telemetry::hist!("checkpoint.load").span();
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

/// Replace the file at `path` with `bytes` so that a crash leaves either the
/// old file or the new one whole, never a truncated mix: the bytes go to
/// `.<name>.tmp` in the same directory, which is synced and then renamed over
/// `path`; on unix the directory is synced too, so the rename itself survives
/// a power cut (Pillai et al., "All File Systems Are Not Created Equal",
/// OSDI 2014). A temp file left by an earlier crash is overwritten.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Export an RNG's exact stream position as checkpoint words.
pub fn rng_state_words(rng: &SmallRng) -> Vec<u64> {
    rng.state().to_vec()
}

/// Rebuild an RNG at the exact stream position recorded by
/// [`rng_state_words`].
pub fn rng_from_words(words: &[u64]) -> Result<SmallRng, String> {
    let state: [u64; 4] = words
        .try_into()
        .map_err(|_| format!("RNG state needs exactly 4 words, got {}", words.len()))?;
    Ok(SmallRng::from_state(state))
}

/// One stored transition as a snapshot holds it: `(state, action, reward,
/// next state)`.
pub type StoredTransition<'a> = (&'a [f64], usize, f64, &'a [f64]);

/// Check the transitions a snapshot stores (buffer D, or DQN's replay)
/// before an agent takes them: both states must be `state_dim` wide, the
/// action below `num_actions`, and the reward and every state component
/// finite, as the agents' own store phase keeps them. A restore that
/// skipped this would fail later, deep inside a kernel: the next refill
/// would trip the encoder's length assert, or train on a NaN.
pub fn check_transitions<'a>(
    what: &str,
    transitions: impl IntoIterator<Item = StoredTransition<'a>>,
    state_dim: usize,
    num_actions: usize,
) -> Result<(), String> {
    for (i, (state, action, reward, next_state)) in transitions.into_iter().enumerate() {
        if state.len() != state_dim || next_state.len() != state_dim {
            return Err(format!(
                "{what} transition {i} does not fit state_dim {state_dim}: its states have {} \
                 and {} components",
                state.len(),
                next_state.len()
            ));
        }
        if action >= num_actions {
            return Err(format!(
                "{what} transition {i} does not fit {num_actions} actions: action {action}"
            ));
        }
        let finite = reward.is_finite() && state.iter().chain(next_state).all(|v| v.is_finite());
        if !finite {
            return Err(format!("{what} transition {i} holds a non-finite value"));
        }
    }
    Ok(())
}

/// [`check_transitions`] over a buffer of [`Observation`]s.
pub fn check_buffer(
    what: &str,
    buffer: &[Observation],
    state_dim: usize,
    num_actions: usize,
) -> Result<(), String> {
    let rows = buffer
        .iter()
        .map(|o| (&o.state[..], o.action, o.reward, &o.next_state[..]));
    check_transitions(what, rows, state_dim, num_actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct ToyState {
        steps: usize,
        weights: Vec<f64>,
    }

    #[test]
    fn stored_transitions_must_fit_the_agent_and_be_finite() {
        let (s4, s3) = ([0.0; 4], [0.0; 3]);
        let ok: StoredTransition = (&s4, 1, -1.0, &s4);
        assert!(check_transitions("D", [ok, ok], 4, 2).is_ok());
        let bad: [(StoredTransition, &str); 5] = [
            ((&s3, 1, -1.0, &s4), "does not fit state_dim 4"),
            ((&s4, 1, -1.0, &s3), "does not fit state_dim 4"),
            ((&s4, 2, -1.0, &s4), "does not fit 2 actions"),
            ((&s4, 0, f64::NAN, &s4), "non-finite"),
            ((&[0.0, f64::INFINITY, 0.0, 0.0], 0, 1.0, &s4), "non-finite"),
        ];
        for (row, why) in bad {
            let err = check_transitions("D", [ok, row], 4, 2).unwrap_err();
            assert!(err.contains("D transition 1") && err.contains(why), "{err}");
        }
    }

    #[test]
    fn agent_snapshot_tags_design_and_version() {
        let state = ToyState {
            steps: 7,
            weights: vec![0.5, -0.25],
        };
        let snap = AgentSnapshot::new("toy", &state);
        assert_eq!(snap.version, SNAPSHOT_SCHEMA_VERSION);
        let back: ToyState = snap.decode("toy").unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn decode_rejects_wrong_design() {
        let snap = AgentSnapshot::new(
            "toy",
            &ToyState {
                steps: 0,
                weights: vec![],
            },
        );
        let err = snap.decode::<ToyState>("other").unwrap_err();
        assert!(err.contains("`toy`"), "{err}");
        assert!(err.contains("`other`"), "{err}");
    }

    #[test]
    fn decode_rejects_future_schema_version() {
        let mut snap = AgentSnapshot::new(
            "toy",
            &ToyState {
                steps: 0,
                weights: vec![],
            },
        );
        snap.version = SNAPSHOT_SCHEMA_VERSION + 1;
        let err = snap.decode::<ToyState>("toy").unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn rng_words_round_trip_resumes_the_stream() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..13 {
            let _: u64 = rng.gen();
        }
        let words = rng_state_words(&rng);
        let mut restored = rng_from_words(&words).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn rng_from_words_rejects_wrong_length() {
        assert!(rng_from_words(&[1, 2, 3]).is_err());
    }

    #[test]
    fn run_checkpoint_json_round_trip_is_exact() {
        let ckpt = RunCheckpoint {
            version: SNAPSHOT_SCHEMA_VERSION,
            episodes_run: 12,
            total_steps: 345,
            resets: 1,
            episodes_since_reset: 3,
            solved_at_episode: None,
            stats: EpisodeStats::with_window(4, Some(195.0)),
            agent: AgentSnapshot::new(
                "toy",
                &ToyState {
                    steps: 9,
                    weights: vec![1.0 / 3.0, -0.0, f64::MIN_POSITIVE],
                },
            ),
            rng: vec![1, 2, 3, 4],
            env_state: None,
            slots: Some(vec![SlotCheckpoint {
                rng: vec![5, 6, 7, 8],
                env_state: vec![0.1, -0.2],
                observation: vec![0.3, 0.4],
                episode_return: 17.0,
                active: true,
            }]),
        };
        let json = ckpt.to_json().unwrap();
        let back = RunCheckpoint::from_json(&json).unwrap();
        // The JSON layer is shortest-round-trip/correctly-rounded, so a
        // second serialisation must be byte-identical.
        assert_eq!(back.to_json().unwrap(), json);
        assert_eq!(back.episodes_run, 12);
        assert_eq!(back.slots.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn from_json_rejects_future_schema_version() {
        let ckpt = RunCheckpoint {
            version: SNAPSHOT_SCHEMA_VERSION + 3,
            episodes_run: 0,
            total_steps: 0,
            resets: 0,
            episodes_since_reset: 0,
            solved_at_episode: None,
            stats: EpisodeStats::with_window(1, None),
            agent: AgentSnapshot::new(
                "toy",
                &ToyState {
                    steps: 0,
                    weights: vec![],
                },
            ),
            rng: vec![0; 4],
            env_state: None,
            slots: None,
        };
        let json = ckpt.to_json().unwrap();
        assert!(RunCheckpoint::from_json(&json).is_err());
    }

    fn toy_checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            version: SNAPSHOT_SCHEMA_VERSION,
            episodes_run: 5,
            total_steps: 99,
            resets: 0,
            episodes_since_reset: 5,
            solved_at_episode: Some(4),
            stats: EpisodeStats::with_window(2, None),
            agent: AgentSnapshot::new(
                "toy",
                &ToyState {
                    steps: 1,
                    weights: vec![2.5],
                },
            ),
            rng: vec![9, 8, 7, 6],
            env_state: Some(vec![1.0]),
            slots: None,
        }
    }

    /// A fresh directory per test, so tests running in parallel never share
    /// files.
    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("elmrl-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = test_dir("ckpt-round-trip");
        let path = dir.join("ckpt.json");
        let ckpt = toy_checkpoint();
        let json = ckpt.to_json().unwrap();
        // A longer file at the target: a save that wrote in place without
        // truncating would leave this tail behind the new JSON.
        std::fs::write(&path, "x".repeat(json.len() * 2)).unwrap();
        ckpt.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        let back = RunCheckpoint::load(&path).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert!(
            !dir.join(".ckpt.json.tmp").exists(),
            "temp file left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stale_truncated_temp_file_does_not_change_what_load_returns() {
        // What a crash in the middle of a save leaves: a valid checkpoint
        // from the save before, and half of the next one in the temp file.
        let dir = test_dir("ckpt-stale-temp");
        let path = dir.join("ckpt.json");
        let ckpt = toy_checkpoint();
        ckpt.save(&path).unwrap();
        let json = ckpt.to_json().unwrap();
        let tmp = dir.join(".ckpt.json.tmp");
        std::fs::write(&tmp, &json[..json.len() / 2]).unwrap();
        assert_eq!(RunCheckpoint::load(&path).unwrap().to_json().unwrap(), json);
        // The next save goes through the stale temp file and consumes it.
        ckpt.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
