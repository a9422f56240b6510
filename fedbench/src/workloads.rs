//! The three fixed federated workloads, generated from the command-line
//! seed. `README.md` next to this crate gives the reason for each.

use std::sync::Arc;

use fedlps::core::FedLps;
use fedlps::data::scenario::{DatasetKind, ScenarioConfig};
use fedlps::device::{DeviceFleet, DeviceProfile, HeterogeneityLevel};
use fedlps::faults::{AvailabilityModel, FaultConfig};
use fedlps::nn::model::{ModelArch, ModelKind};
use fedlps::select::SelectionKind;
use fedlps::sim::{FlConfig, FlEnv, RoundMode, Simulator};
use fedlps::tensor::rng::sample_without_replacement;
use fedlps::tensor::{rng_from_seed, split_seed};

use crate::trace::now;

/// Registered population of `xdev_async`.
const XDEV_POPULATION: usize = 1_000_000;
/// Data shards every workload's MnistLike scenario holds.
const MNIST_SHARDS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    CohortSync,
    XdevAsync,
    EvalCnn,
}

/// A workload ready to run: the simulator, a fresh algorithm, and how long
/// each half of the set-up took.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) sim: Simulator,
    pub(crate) algo: FedLps,
    /// `fedlps_data` scenario build, seconds.
    pub(crate) data_s: f64,
    /// Fleet, model, `FlEnv`, `Simulator::new` and `FedLps::for_env`,
    /// seconds.
    pub(crate) env_s: f64,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] =
        [Workload::CohortSync, Workload::XdevAsync, Workload::EvalCnn];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::CohortSync => "cohort_sync",
            Workload::XdevAsync => "xdev_async",
            Workload::EvalCnn => "eval_cnn",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Lowest acceptable quality figure ([`crate::quality`]). Every
    /// workload's task has 10 classes, so chance is 0.10; the floors sit
    /// well above it and well below the values the workloads reach.
    pub(crate) fn accuracy_floor(self) -> f64 {
        match self {
            Workload::CohortSync => 0.6,
            Workload::XdevAsync => 0.4,
            Workload::EvalCnn => 0.25,
        }
    }

    /// The federation configuration; `seed` is the workload's `FlConfig`
    /// seed, already derived from the command-line seed.
    pub(crate) fn config(self, seed: u64, parallelism: usize) -> FlConfig {
        let base = FlConfig {
            seed,
            parallelism,
            ..FlConfig::default()
        };
        match self {
            Workload::CohortSync => FlConfig {
                rounds: 8,
                clients_per_round: 16,
                local_iterations: 20,
                batch_size: 16,
                // Round 0 and the last round evaluate: the driver always
                // evaluates round 0 when evaluation is on at all.
                eval_every: 8,
                ..base
            },
            Workload::XdevAsync => FlConfig {
                rounds: 96,
                clients_per_round: 32,
                local_iterations: 1,
                batch_size: 8,
                // Whole-federation evaluation is O(population); the
                // benchmark scores the global model after the run instead.
                eval_every: 0,
                round_mode: RoundMode::asynchronous(4, 0.6),
                selection: SelectionKind::utility(),
                availability: AvailabilityModel::Diurnal {
                    period: 0.02,
                    phase_spread: 1.0,
                    night_offline: 0.3,
                },
                faults: FaultConfig {
                    upload_failure_prob: 0.1,
                    max_retries: 2,
                    ..FaultConfig::default()
                },
                ..base
            },
            Workload::EvalCnn => FlConfig {
                rounds: 20,
                clients_per_round: 5,
                local_iterations: 2,
                batch_size: 20,
                eval_every: 1,
                ..base
            },
        }
    }

    /// Builds the workload from the command-line `seed`: the scenario, the
    /// fleet and the `FlConfig` each get their own seed derived from it.
    pub(crate) fn prepare(self, seed: u64, parallelism: usize) -> Prepared {
        let t0 = now();
        let kind = match self {
            Workload::CohortSync | Workload::XdevAsync => DatasetKind::MnistLike,
            Workload::EvalCnn => DatasetKind::Cifar10Like,
        };
        let mut scenario = ScenarioConfig::small(kind).with_seed(split_seed(seed, 0xDA7A));
        if kind == DatasetKind::MnistLike {
            scenario = scenario.with_clients(MNIST_SHARDS);
        }
        let data = scenario.build();
        let t1 = now();

        let fleet_seed = split_seed(seed, 0xF1EE7);
        let config = self.config(split_seed(seed, 0xC0F1), parallelism);
        let arch: Arc<dyn ModelArch> = ModelKind::for_dataset(kind)
            .build(data.input, data.num_classes)
            .into();
        let env = match self {
            Workload::XdevAsync => {
                let fleet =
                    DeviceFleet::lazy(XDEV_POPULATION, HeterogeneityLevel::High, fleet_seed);
                FlEnv::new_tiled(data, fleet, arch, config)
            }
            Workload::CohortSync => {
                let fleet = balanced_fleet(data.num_clients(), fleet_seed);
                FlEnv::new(data, fleet, arch, config)
            }
            // One device tier: at High heterogeneity the 20 clients' sparse
            // ConvNets made the final accuracy swing by a sixth from seed to
            // seed. Heterogeneity is the other two workloads' axis.
            Workload::EvalCnn => {
                let fleet =
                    DeviceFleet::sample(data.num_clients(), HeterogeneityLevel::None, fleet_seed);
                FlEnv::new(data, fleet, arch, config)
            }
        };
        let sim = Simulator::new(env);
        let algo = FedLps::for_env(sim.env());
        let t2 = now();
        Prepared {
            sim,
            algo,
            data_s: (t1 - t0).as_secs_f64(),
            env_s: (t2 - t1).as_secs_f64(),
        }
    }
}

/// A High-heterogeneity fleet of `n` devices holding each of the five tiers
/// equally often (up to rounding), dealt to clients by a permutation drawn
/// from `seed`. `DeviceFleet::sample` draws every device's tier
/// independently, so at 64 devices the fleet's mean capability, and with it
/// the training cost and the upload volume, moved by a tenth or more from
/// seed to seed. Dealing the tiers keeps the seed's effect to which client
/// holds which tier.
fn balanced_fleet(n: usize, seed: u64) -> DeviceFleet {
    let tiers = HeterogeneityLevel::High.tiers();
    let order = sample_without_replacement(n, n, &mut rng_from_seed(seed));
    let devices = order
        .into_iter()
        .map(|slot| DeviceProfile::from_tier(tiers[slot % tiers.len()]))
        .collect();
    DeviceFleet::from_profiles(devices, seed)
}
