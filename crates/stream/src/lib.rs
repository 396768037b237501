//! Incremental windowed fleet correlation — the XLF Core run as an
//! *online* detection service rather than a post-hoc batch pass.
//!
//! The paper's Figure 4 places the Core between the layers *as traffic
//! flows*: correlation is meant to be continuous. The fleet tier's batch
//! aggregator only correlates once every home has reached the horizon;
//! this crate closes that gap. Homes emit per-window
//! [`WindowSummary`] feature deltas (behaviour / evidence / verdict
//! movement over `N` simulated seconds) through a bounded,
//! shed-accounted [`WindowBuffer`]; a [`StreamCorrelator`] folds them
//! into online robust statistics (streaming median + MAD per feature,
//! exactly mergeable across windows — [`RobustAccumulator`]) and each
//! epoch scores every home by robust z against its own template's
//! per-dimension median/MAD — the batch aggregator's rule, linear in
//! homes — so fleet alerts fire mid-run with epoch-stamped dedup instead
//! of at the horizon.
//!
//! Everything is deterministic in the same sense as the rest of the
//! workspace: epochs are simulated-time barriers, summaries are folded
//! in home-id order regardless of arrival order, and there is no wall
//! clock anywhere. On top of that the correlator supports
//! **checkpoint/resume**: [`StreamCorrelator::checkpoint`] serializes
//! the full correlator state at an epoch boundary into a versioned,
//! byte-deterministic buffer and [`StreamCorrelator::restore`] continues
//! from it such that the resumed run is byte-identical to an
//! uninterrupted one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod correlate;
pub mod stats;
pub mod window;

pub use checkpoint::{CheckpointError, Reader, Writer};
pub use correlate::{
    correlate_windows, EpochRecord, StreamConfig, StreamCorrelator, StreamOutcome,
};
pub use stats::RobustAccumulator;
pub use window::{WindowBuffer, WindowSummary, STREAM_FEATURES};
