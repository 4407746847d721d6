//! `mpiq-bench` — workload generators and experiment harnesses.
//!
//! Reimplements the two microbenchmarks of §V-A (from Underwood &
//! Brightwell, ICPP 2004) on the simulated cluster, plus the sweep
//! drivers that regenerate every figure and table of the paper's
//! evaluation:
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Fig. 5 (a–f) | [`preposted`] sweeps via `--bin fig5` |
//! | Fig. 6 | [`unexpected`] sweeps via `--bin fig6` |
//! | Table IV / V | [`mpiq_fpga::tables`] via `--bin table4` / `--bin table5` |
//! | break-even analysis (§VI-B) | [`preposted`] fine sweep via `--bin breakeven` |

pub mod appsim;
pub mod ascii_plot;
pub mod cli;
pub mod exec;
pub mod faultstats;
pub mod gap;
pub mod jsonlint;
pub mod obs;
pub mod postloop;
pub mod preposted;
pub mod report;
pub mod service;
pub mod soak;
pub mod spec;
pub mod sweep;
pub mod unexpected;
pub mod wildcard;

pub use faultstats::FaultCounters;
pub use obs::{traced_preposted, traced_unexpected, TracedRun};
pub use postloop::{postloop_rtt, PostLoopPoint};
pub use preposted::{preposted_cluster, preposted_latency, preposted_latency_cfg, PrepostedPoint};
pub use soak::{run_soak, Scenario, SoakConfig, SoakOutcome};
pub use sweep::run_parallel;
pub use unexpected::{unexpected_latency, unexpected_latency_cfg, UnexpectedPoint};

use mpiq_nic::NicConfig;

/// The three NIC configurations of the evaluation (§VI).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NicVariant {
    /// Embedded processor only (Red Storm-like).
    Baseline,
    /// Baseline + 128-entry ALPUs.
    Alpu128,
    /// Baseline + 256-entry ALPUs.
    Alpu256,
}

impl NicVariant {
    /// All three, in presentation order.
    pub const ALL: [NicVariant; 3] = [NicVariant::Baseline, NicVariant::Alpu128, NicVariant::Alpu256];

    /// The NIC configuration for this variant.
    pub fn config(self) -> NicConfig {
        match self {
            NicVariant::Baseline => NicConfig::baseline(),
            NicVariant::Alpu128 => NicConfig::with_alpus(128),
            NicVariant::Alpu256 => NicConfig::with_alpus(256),
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            NicVariant::Baseline => "baseline",
            NicVariant::Alpu128 => "alpu128",
            NicVariant::Alpu256 => "alpu256",
        }
    }
}

impl std::str::FromStr for NicVariant {
    type Err = String;
    fn from_str(s: &str) -> Result<NicVariant, String> {
        match s {
            "baseline" => Ok(NicVariant::Baseline),
            "alpu128" => Ok(NicVariant::Alpu128),
            "alpu256" => Ok(NicVariant::Alpu256),
            other => Err(format!(
                "unknown NIC variant `{other}` (want baseline|alpu128|alpu256)"
            )),
        }
    }
}
