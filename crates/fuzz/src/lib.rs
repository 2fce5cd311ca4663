//! Differential, relational and acceleration fuzzing of the SPT simulator.
//!
//! Three oracles run over the same seeded program generator:
//!
//! * **Differential** ([`harness::differential`]): the out-of-order
//!   [`Machine`](spt_ooo::Machine) must reach exactly the architectural
//!   end-state of the in-order reference interpreter — registers, memory
//!   footprint, and retired-instruction count — under *every* Table-2
//!   protection configuration and both threat models. Protection schemes
//!   may change timing, never architecture.
//!
//! * **Relational** ([`harness::relational`]): run the same program twice
//!   with only the designated secret bytes varied. Any configuration whose
//!   [`Config::protected()`](spt_core::Config::protected) contract holds
//!   must produce a bit-identical attacker-observation digest (cache/TLB
//!   reach state, transmitter retire timing, untaint decisions) for both
//!   variants — the executable form of the paper's Theorem 1. The
//!   UnsafeBaseline is the positive control: generated Spectre-v1 gadgets
//!   must make its digests diverge, proving the observation channel is
//!   sharp enough to see a real leak.
//!
//! * **Acceleration** ([`harness::acceleration`]): `Machine::run`
//!   skips quiet cycles; with telemetry on, it must end in exactly the
//!   state (cycles, stats, observation digest, cycle stack, telemetry)
//!   that stepping every cycle through `Machine::step_cycle` reaches,
//!   under every Table-2 configuration and both threat models.
//!
//! Failing programs are greedily shrunk ([`shrink`]) and rendered as
//! replayable textual-assembly reproducers ([`repro`]) for `fuzz/corpus/`.

pub mod campaign;
pub mod generator;
pub mod harness;
pub mod repro;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use generator::{generate, TestProgram};
pub use harness::{acceleration, differential, relational, Finding, FindingKind, RelOutcome};
