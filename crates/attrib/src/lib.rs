//! Cycle attribution: turning the paper's aggregate overhead numbers into
//! per-instruction explanations.
//!
//! The bench layer measures *how much* each protection costs (Figure 7's
//! normalized execution time) and splits each cell's slowdown by
//! head-of-ROB cycle class (`paper`'s Figure-7 cycle-stack tables). This crate
//! explains *which instructions* those cycles belong to:
//!
//! * **Trace diff** ([`align`], [`diff`]) — parse two O3PipeView traces of
//!   the same workload under different configurations (emitted by
//!   `run_spt --trace`, which interleaves `SPTEvent:` lines), align the
//!   retired instruction streams, and attribute every per-instruction
//!   cycle delta to a pipeline-stage interval and a named stall cause
//!   (delayed transmitter, shadow-L1 wait, deferred branch resolution,
//!   plain backpressure). Driven by the `tracediff` binary, which emits a
//!   versioned `spt-attrib-v1` JSON document ([`attribdoc`]) that passes
//!   its own `--validate`.
//!
//! See DESIGN.md §6e for the alignment algorithm and the stall taxonomy.

pub mod align;
pub mod attribdoc;
pub mod diff;

pub use align::{align_retired, Alignment};
pub use attribdoc::{diff_document, render_diff_report, validate_attrib_document, ATTRIB_SCHEMA};
pub use diff::{diff_traces, StageDeltas, Stall, StallCause, TraceDiff};
