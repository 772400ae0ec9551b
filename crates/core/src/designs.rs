//! The evaluated designs (§4.1) as a factory enum.
//!
//! Seven designs are compared in the paper. Six are pure software and built
//! here; the seventh (`FPGA`) is the same algorithm as OS-ELM-L2-Lipschitz
//! running through the fixed-point datapath simulator and is constructed by
//! `elmrl-fpga` (which depends on this crate) — [`Design::build_batch`]
//! therefore covers designs (1)–(6), and `elmrl_fpga::build_agent` covers
//! all seven behind the same [`BatchAgent`] trait object.

use crate::batch::BatchAgent;
use crate::clipping::TargetConfig;
use crate::dqn::{DqnAgent, DqnConfig};
use crate::elm_qnet::{ElmQNet, ElmQNetConfig};
use crate::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_gym::{EnvSpec, Workload};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// The designs of §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// (1) ELM Q-Network with the simplified output model and Q-value clipping.
    Elm,
    /// (2) OS-ELM Q-Network (+ random update), no regularisation.
    OsElm,
    /// (3) OS-ELM with L2 regularisation of β (δ = 1).
    OsElmL2,
    /// (4) OS-ELM with spectral normalization of α.
    OsElmLipschitz,
    /// (5) OS-ELM with both (δ = 0.5) — the paper's recommended software design.
    OsElmL2Lipschitz,
    /// (6) The three-layer DQN baseline.
    Dqn,
    /// (7) The FPGA fixed-point implementation of (5); built by `elmrl-fpga`.
    Fpga,
}

impl Design {
    /// All software designs, in the paper's order.
    pub fn software_designs() -> [Design; 6] {
        [
            Design::Elm,
            Design::OsElm,
            Design::OsElmL2,
            Design::OsElmLipschitz,
            Design::OsElmL2Lipschitz,
            Design::Dqn,
        ]
    }

    /// All seven designs.
    pub fn all_designs() -> [Design; 7] {
        [
            Design::Elm,
            Design::OsElm,
            Design::OsElmL2,
            Design::OsElmLipschitz,
            Design::OsElmL2Lipschitz,
            Design::Dqn,
            Design::Fpga,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Design::Elm => "ELM",
            Design::OsElm => "OS-ELM",
            Design::OsElmL2 => "OS-ELM-L2",
            Design::OsElmLipschitz => "OS-ELM-Lipschitz",
            Design::OsElmL2Lipschitz => "OS-ELM-L2-Lipschitz",
            Design::Dqn => "DQN",
            Design::Fpga => "FPGA",
        }
    }

    /// The L2 regularisation strength δ the paper assigns to this design
    /// (§4.1: δ = 1 for OS-ELM-L2 and δ = 0.5 for OS-ELM-L2-Lipschitz).
    pub fn l2_delta(self) -> f64 {
        match self {
            Design::OsElmL2 => 1.0,
            Design::OsElmL2Lipschitz | Design::Fpga => 0.5,
            _ => 0.0,
        }
    }

    /// Whether this design spectrally normalises α.
    pub fn spectral_normalize(self) -> bool {
        matches!(
            self,
            Design::OsElmLipschitz | Design::OsElmL2Lipschitz | Design::Fpga
        )
    }

    /// Whether this design trains through the chunked OS-ELM RLS update —
    /// i.e. whether [`crate::oselm_qnet::DEFAULT_CHUNK_CAP`] applies to it.
    pub fn uses_chunked_rls(self) -> bool {
        matches!(
            self,
            Design::OsElm | Design::OsElmL2 | Design::OsElmLipschitz | Design::OsElmL2Lipschitz
        )
    }

    /// The RLS chunk cap a run of this design trains under:
    /// [`crate::oselm_qnet::DEFAULT_CHUNK_CAP`] where the cap is live at all
    /// (a chunked OS-ELM design driving batch-B ticks, `train_envs > 1`).
    /// Scalar and non-RLS runs get `None`, which is what their artefacts
    /// record, so scalar artefacts keep their bytes.
    pub fn effective_chunk_cap(self, train_envs: usize) -> Option<usize> {
        let live = train_envs > 1 && self.uses_chunked_rls();
        live.then_some(crate::oselm_qnet::DEFAULT_CHUNK_CAP)
    }

    /// Build the agent for this design. Panics for [`Design::Fpga`], which
    /// is constructed by `elmrl-fpga` (`elmrl_fpga::build_agent` builds all
    /// seven designs).
    ///
    /// The box is `Send` so callers can move workers across the thread pool
    /// (the serve engine dispatches per-worker batches through `rayon`);
    /// `&mut Box<dyn BatchAgent + Send>` still coerces to
    /// `&mut dyn BatchAgent` everywhere the non-`Send` object was used.
    pub fn build_batch(
        self,
        config: &DesignConfig,
        rng: &mut SmallRng,
    ) -> Box<dyn BatchAgent + Send> {
        match self {
            Design::Elm => Box::new(ElmQNet::new(ElmQNetConfig::from_design(config), rng)),
            Design::OsElm | Design::OsElmL2 | Design::OsElmLipschitz | Design::OsElmL2Lipschitz => {
                Box::new(OsElmQNet::new(
                    OsElmQNetConfig::from_design(
                        config,
                        self.l2_delta(),
                        self.spectral_normalize(),
                    ),
                    rng,
                ))
            }
            Design::Dqn => Box::new(DqnAgent::new(DqnConfig::from_design(config), rng)),
            Design::Fpga => {
                panic!("Design::Fpga is built by elmrl_fpga, not Design::build_batch")
            }
        }
    }

    /// Resolve a design from a user-supplied name. Case and `-`/`_`/space
    /// separators are ignored, so `os-elm-l2-lipschitz`, `OS_ELM_L2_Lipschitz`
    /// and `oselml2lipschitz` all resolve to [`Design::OsElmL2Lipschitz`].
    pub fn from_name(name: &str) -> Option<Design> {
        let key: String = name
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | ' '))
            .collect::<String>()
            .to_ascii_lowercase();
        match key.as_str() {
            "elm" => Some(Design::Elm),
            "oselm" => Some(Design::OsElm),
            "oselml2" => Some(Design::OsElmL2),
            "oselmlipschitz" => Some(Design::OsElmLipschitz),
            "oselml2lipschitz" => Some(Design::OsElmL2Lipschitz),
            "dqn" => Some(Design::Dqn),
            "fpga" => Some(Design::Fpga),
            _ => None,
        }
    }
}

/// Parameters shared by every design when building agents for one experiment
/// cell (one hidden size on one environment).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesignConfig {
    /// Environment state dimensionality (4 for CartPole).
    pub state_dim: usize,
    /// Number of discrete actions (2 for CartPole).
    pub num_actions: usize,
    /// Hidden-layer width `Ñ`.
    pub hidden_dim: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// Exploit probability ε₁.
    pub exploit_prob: f64,
    /// Random-update probability ε₂ (OS-ELM designs only).
    pub update_prob: f64,
    /// Target-network sync interval (episodes).
    pub target_sync_episodes: usize,
    /// Whether ELM/OS-ELM Q-learning targets are clipped into `[-1, 1]`
    /// (§3.1; DQN always trains unclipped and relies on the Huber loss).
    pub clip_targets: bool,
}

impl DesignConfig {
    /// The paper's CartPole parameters with the given hidden size — a
    /// shorthand for `Self::for_workload(&Workload::CartPole.spec(), ..)`.
    pub fn new(hidden_dim: usize) -> Self {
        Self::for_workload(&Workload::CartPole.spec(), hidden_dim)
    }

    /// Design parameters for a registered workload: dimensions and protocol
    /// knobs (γ, ε₁, ε₂, sync interval, clipping) come from the
    /// [`EnvSpec`]'s per-workload defaults.
    pub fn for_workload(spec: &EnvSpec, hidden_dim: usize) -> Self {
        Self {
            state_dim: spec.observation_dim,
            num_actions: spec.num_actions,
            hidden_dim,
            gamma: spec.defaults.gamma,
            exploit_prob: spec.defaults.exploit_prob,
            update_prob: spec.defaults.update_prob,
            target_sync_episodes: spec.defaults.target_sync_episodes,
            clip_targets: spec.defaults.clip_targets,
        }
    }

    /// Adjust the state/action dimensions for a different environment.
    pub fn for_env(mut self, state_dim: usize, num_actions: usize) -> Self {
        self.state_dim = state_dim;
        self.num_actions = num_actions;
        self
    }

    /// The ELM/OS-ELM target construction these parameters imply.
    pub fn target_config(&self) -> TargetConfig {
        TargetConfig {
            gamma: self.gamma,
            ..if self.clip_targets {
                TargetConfig::default()
            } else {
                TargetConfig::unclipped(self.gamma)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn effective_chunk_cap_defaults_only_where_the_cap_is_live() {
        let default = Some(crate::oselm_qnet::DEFAULT_CHUNK_CAP);
        for design in Design::all_designs() {
            let chunked = design.uses_chunked_rls();
            assert_eq!(design.effective_chunk_cap(1), None, "{design:?}");
            assert_eq!(
                design.effective_chunk_cap(4),
                if chunked { default } else { None },
                "{design:?}"
            );
        }
    }

    #[test]
    fn labels_and_enumerations() {
        assert_eq!(Design::software_designs().len(), 6);
        assert_eq!(Design::all_designs().len(), 7);
        assert_eq!(Design::OsElmL2Lipschitz.label(), "OS-ELM-L2-Lipschitz");
        assert_eq!(Design::Fpga.label(), "FPGA");
    }

    #[test]
    fn paper_delta_assignments() {
        assert_eq!(Design::OsElmL2.l2_delta(), 1.0);
        assert_eq!(Design::OsElmL2Lipschitz.l2_delta(), 0.5);
        assert_eq!(Design::Fpga.l2_delta(), 0.5);
        assert_eq!(Design::OsElm.l2_delta(), 0.0);
        assert!(!Design::OsElmL2.spectral_normalize());
        assert!(Design::OsElmLipschitz.spectral_normalize());
        assert!(Design::Fpga.spectral_normalize());
    }

    #[test]
    fn build_produces_correctly_named_agents() {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = DesignConfig::new(16);
        for design in Design::software_designs() {
            let agent = design.build_batch(&config, &mut rng);
            assert_eq!(agent.name(), design.label());
            assert_eq!(agent.hidden_dim(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "built by elmrl_fpga")]
    fn building_fpga_here_panics() {
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = Design::Fpga.build_batch(&DesignConfig::new(16), &mut rng);
    }

    #[test]
    fn from_name_is_forgiving() {
        for name in [
            "os-elm-l2-lipschitz",
            "OS_ELM_L2_Lipschitz",
            "OsElmL2Lipschitz",
        ] {
            assert_eq!(
                Design::from_name(name),
                Some(Design::OsElmL2Lipschitz),
                "{name}"
            );
        }
        assert_eq!(Design::from_name("dqn"), Some(Design::Dqn));
        assert_eq!(Design::from_name("FPGA"), Some(Design::Fpga));
        // Every label round-trips.
        for design in Design::all_designs() {
            assert_eq!(Design::from_name(design.label()), Some(design));
        }
        assert_eq!(Design::from_name("resnet"), None);
    }

    #[test]
    fn design_config_env_override() {
        let c = DesignConfig::new(32).for_env(2, 3);
        assert_eq!(c.state_dim, 2);
        assert_eq!(c.num_actions, 3);
        assert_eq!(c.hidden_dim, 32);
        let mut rng = SmallRng::seed_from_u64(3);
        let agent = Design::OsElmL2Lipschitz.build_batch(&c, &mut rng);
        // MountainCar-shaped agent still constructs and answers Q-values.
        let mut agent = agent;
        assert_eq!(agent.q_values(&[0.0, 0.0]).len(), 3);
    }

    #[test]
    fn every_software_design_builds_for_every_workload() {
        let mut rng = SmallRng::seed_from_u64(4);
        for workload in Workload::all() {
            let spec = workload.spec();
            let config = DesignConfig::for_workload(&spec, 8);
            assert_eq!(config.state_dim, spec.observation_dim);
            assert_eq!(config.num_actions, spec.num_actions);
            for design in Design::software_designs() {
                let mut agent = design.build_batch(&config, &mut rng);
                let probe = vec![0.0; spec.observation_dim];
                assert_eq!(
                    agent.q_values(&probe).len(),
                    spec.num_actions,
                    "{design:?} on {workload:?}"
                );
            }
        }
    }

    #[test]
    fn new_is_the_cartpole_workload_shim() {
        let via_new = DesignConfig::new(16);
        let via_spec = DesignConfig::for_workload(&Workload::CartPole.spec(), 16);
        assert_eq!(via_new, via_spec);
        assert_eq!(via_new.state_dim, 4);
        assert_eq!(via_new.num_actions, 2);
        assert!(via_new.clip_targets);
        assert!(via_new.target_config().clip);
        let mut unclipped = via_new.clone();
        unclipped.clip_targets = false;
        assert!(!unclipped.target_config().clip);
    }
}
