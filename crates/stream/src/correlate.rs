//! The epoch-by-epoch stream correlator: folds window summaries into
//! per-home running features, scores every home each epoch by robust z
//! against its own template's population, and fires epoch-stamped,
//! deduplicated fleet detections mid-run.

use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::stats::{median_mad, RobustAccumulator};
use crate::window::{WindowSummary, STREAM_FEATURES};
use std::collections::{BTreeMap, BTreeSet};
use xlf_analytics::robust::robust_z;

/// Checkpoint header. Version 2 scores by per-template robust z and
/// checkpoints each home's template and latest window; version 1 (the
/// kNN-graph correlator with carried community labels) is rejected.
const MAGIC: &[u8; 4] = b"XLFS";
const VERSION: u32 = 2;

/// Feature index of the per-window critical-alert delta (see
/// [`crate::window::STREAM_FEATURES`]).
const CRITICAL_DELTA: usize = 5;

/// Dimensions of the vector a home is scored on each epoch: cumulative
/// counters, the per-window median profile, and the latest window's
/// deltas ([`STREAM_FEATURES`] each).
const SCORE_DIMS: usize = 3 * STREAM_FEATURES;

/// Tuning for the streaming correlation pass. Defaults mirror the batch
/// fleet aggregator, and so does the rule: a home is flagged when its
/// robust z reaches `max(sigma, min_deviation)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Deviation-score floor below which nothing is flagged.
    pub min_deviation: f64,
    /// Robust z-score bar, in robust-σ units.
    pub sigma: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            min_deviation: 0.15,
            sigma: 4.0,
        }
    }
}

/// What one correlation epoch observed fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// Zero-based epoch index (== window index).
    pub epoch: u64,
    /// Homes contributing at least one window by this epoch.
    pub homes: u64,
    /// Detections first fired this epoch (new flags).
    pub alerts: u64,
    /// Detections suppressed this epoch because the home was already
    /// flagged in an earlier epoch (the epoch-stamped dedup).
    pub deduped: u64,
}

/// Final streaming summary: the per-epoch trace plus detection-latency
/// and loss accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// One record per completed epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// For every home ever flagged: the epoch it was *first* flagged in.
    pub first_detection: BTreeMap<u64, u64>,
    /// Every home flagged by the stream pass.
    pub flagged: BTreeSet<u64>,
    /// Homes whose summaries were marked partial (degraded homes
    /// correlated on their truncated evidence prefix), in id order.
    pub partial_homes: Vec<u64>,
    /// Window summaries folded in across all epochs.
    pub windows_ingested: u64,
    /// Window summaries shed before reaching the correlator (reported by
    /// the bounded per-home window buffers).
    pub windows_shed: u64,
}

/// Per-home streaming state.
#[derive(Debug, Clone, PartialEq)]
struct HomeState {
    /// Template index: the population the home is scored against.
    template: usize,
    /// Windows folded in so far.
    windows: u64,
    /// Whether any summary was marked partial.
    partial: bool,
    /// Cumulative sum per feature (== the home's batch counters up to
    /// the last ingested window).
    cumulative: [f64; STREAM_FEATURES],
    /// The last ingested window's deltas.
    latest: [f64; STREAM_FEATURES],
    /// Per-feature robust profile over the home's window deltas.
    stats: Vec<RobustAccumulator>,
}

impl HomeState {
    fn new() -> Self {
        HomeState {
            template: 0,
            windows: 0,
            partial: false,
            cumulative: [0.0; STREAM_FEATURES],
            latest: [0.0; STREAM_FEATURES],
            stats: vec![RobustAccumulator::new(); STREAM_FEATURES],
        }
    }

    /// Appends the [`SCORE_DIMS`] values this home is scored on: *how
    /// much* it has done, *what its typical window looks like*, and
    /// *what it just did*.
    fn score_vector_into(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.cumulative);
        out.extend(self.stats.iter().map(|a| a.median()));
        out.extend_from_slice(&self.latest);
    }
}

/// Scores one template's homes: each row of `block` ([`SCORE_DIMS`]
/// values per home) by robust z against the block's per-dimension
/// median/MAD, appended to `scores` in row order. This is the batch
/// aggregator's rule, so a minority template is never flagged for
/// behaving like itself. Cost is two selections per dimension, linear in
/// homes.
fn score_template(
    block: &[f64],
    column: &mut Vec<f64>,
    deviations: &mut Vec<f64>,
    scores: &mut Vec<f64>,
) {
    let (mut medians, mut mads) = ([0.0; SCORE_DIMS], [0.0; SCORE_DIMS]);
    for d in 0..SCORE_DIMS {
        column.clear();
        column.extend(block.chunks_exact(SCORE_DIMS).map(|v| v[d]));
        (medians[d], mads[d]) = median_mad(column, deviations);
    }
    scores.extend(
        block
            .chunks_exact(SCORE_DIMS)
            .map(|v| robust_z(v, &medians, &mads)),
    );
}

/// Reusable per-epoch working buffers. Transient working state only —
/// excluded from equality and from checkpoints.
#[derive(Debug, Clone, Default)]
struct CorrelatorScratch {
    vectors: Vec<f64>,
    column: Vec<f64>,
    deviations: Vec<f64>,
    scores: Vec<f64>,
}

/// The online fleet correlator. Feed it one epoch of window summaries at
/// a time ([`StreamCorrelator::ingest_epoch`]); it maintains running
/// cumulative counters and mergeable robust per-feature profiles per
/// home, scores every home by robust z against its template's
/// population at that epoch, and records epoch-stamped detections with
/// dedup. All folding happens in home-id order, so the outcome is
/// independent of summary arrival order — and of how many workers
/// produced them.
#[derive(Debug, Clone)]
pub struct StreamCorrelator {
    cfg: StreamConfig,
    epoch: u64,
    windows_ingested: u64,
    windows_shed: u64,
    homes: BTreeMap<u64, HomeState>,
    /// Homes already flagged (dedup set).
    flagged: BTreeSet<u64>,
    /// First-detection epoch per flagged home.
    first_detection: BTreeMap<u64, u64>,
    epochs: Vec<EpochRecord>,
    scratch: CorrelatorScratch,
}

impl PartialEq for StreamCorrelator {
    /// Equality covers the correlator's logical state only — exactly
    /// what [`StreamCorrelator::checkpoint`] captures. The scratch
    /// buffers are warm caches, not state.
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.epoch == other.epoch
            && self.windows_ingested == other.windows_ingested
            && self.windows_shed == other.windows_shed
            && self.homes == other.homes
            && self.flagged == other.flagged
            && self.first_detection == other.first_detection
            && self.epochs == other.epochs
    }
}

impl StreamCorrelator {
    /// A fresh correlator at epoch 0.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamCorrelator {
            cfg,
            epoch: 0,
            windows_ingested: 0,
            windows_shed: 0,
            homes: BTreeMap::new(),
            flagged: BTreeSet::new(),
            first_detection: BTreeMap::new(),
            epochs: Vec::new(),
            scratch: CorrelatorScratch::default(),
        }
    }

    /// The next epoch to be ingested (== epochs completed so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Charges `n` shed windows to the loss accounting (the bounded
    /// per-home window buffers report their evictions here).
    pub fn note_shed(&mut self, n: u64) {
        self.windows_shed += n;
    }

    /// Puts `home` in `template`'s population: from now on it is scored
    /// against that template's homes. A home never assigned belongs to
    /// template 0. The assignment is part of the checkpoint.
    pub fn assign_template(&mut self, home: u64, template: usize) {
        self.homes
            .entry(home)
            .or_insert_with(HomeState::new)
            .template = template;
    }

    /// Homes flagged so far — the alert-consumption hook for anything
    /// that reacts to detections *between* epochs (e.g. a rollout health
    /// gate), without paying for a full [`StreamCorrelator::outcome`]
    /// clone per epoch.
    pub fn flagged(&self) -> &BTreeSet<u64> {
        &self.flagged
    }

    /// First-detection epoch per flagged home (same borrow-only hook as
    /// [`StreamCorrelator::flagged`]).
    pub fn first_detection(&self) -> &BTreeMap<u64, u64> {
        &self.first_detection
    }

    /// Folds one epoch of window summaries in and scores every home that
    /// has contributed a window. Summaries may arrive in any order and
    /// may omit homes (a truncated home stops contributing; a shed
    /// window is simply absent); folding is by home id, so the result is
    /// arrival-order-independent. Returns this epoch's record.
    pub fn ingest_epoch(&mut self, summaries: &[WindowSummary]) -> EpochRecord {
        // Fold in id order for determinism.
        let mut ordered: Vec<&WindowSummary> = summaries.iter().collect();
        ordered.sort_by_key(|s| (s.home, s.window));
        for s in ordered {
            let state = self.homes.entry(s.home).or_insert_with(HomeState::new);
            state.windows += 1;
            state.partial |= s.partial;
            for (d, &raw) in s.features.iter().enumerate() {
                let v = if raw.is_finite() { raw } else { 0.0 };
                state.cumulative[d] += v;
                state.latest[d] = v;
                state.stats[d].push(v);
            }
            self.windows_ingested += 1;
        }

        // Score template by template (id order within one), so each
        // template's vectors form one contiguous block.
        let mut scored: Vec<(usize, u64, &HomeState)> = self
            .homes
            .iter()
            .filter(|(_, s)| s.windows > 0)
            .map(|(&id, s)| (s.template, id, s))
            .collect();
        scored.sort_unstable_by_key(|&(template, id, _)| (template, id));
        let CorrelatorScratch {
            vectors,
            column,
            deviations,
            scores,
        } = &mut self.scratch;
        vectors.clear();
        scores.clear();
        for population in scored.chunk_by(|a, b| a.0 == b.0) {
            let start = vectors.len();
            for (_, _, state) in population {
                state.score_vector_into(vectors);
            }
            score_template(&vectors[start..], column, deviations, scores);
        }

        // Epoch-stamped detection with dedup: a home fires at most one
        // alert across the whole run; repeats are counted, not re-raised.
        let threshold = self.cfg.sigma.max(self.cfg.min_deviation);
        let (mut alerts, mut deduped) = (0u64, 0u64);
        for (&(_, id, state), &z) in scored.iter().zip(scores.iter()) {
            let critical = state.cumulative[CRITICAL_DELTA] > 0.0;
            if !(z >= threshold || critical) {
                continue;
            }
            if self.flagged.insert(id) {
                alerts += 1;
                self.first_detection.insert(id, self.epoch);
            } else {
                deduped += 1;
            }
        }

        let record = EpochRecord {
            epoch: self.epoch,
            homes: scored.len() as u64,
            alerts,
            deduped,
        };
        self.epochs.push(record);
        self.epoch += 1;
        record
    }

    /// The streaming summary so far.
    pub fn outcome(&self) -> StreamOutcome {
        StreamOutcome {
            epochs: self.epochs.clone(),
            first_detection: self.first_detection.clone(),
            flagged: self.flagged.clone(),
            partial_homes: self
                .homes
                .iter()
                .filter(|(_, s)| s.partial)
                .map(|(&id, _)| id)
                .collect(),
            windows_ingested: self.windows_ingested,
            windows_shed: self.windows_shed,
        }
    }

    /// Serializes the complete correlator state into a deterministic,
    /// versioned byte buffer. Same state → same bytes, always: the
    /// checkpoint of a resumed run byte-equals the checkpoint of an
    /// uninterrupted one.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.f64(self.cfg.min_deviation);
        w.f64(self.cfg.sigma);
        w.u64(self.epoch);
        w.u64(self.windows_ingested);
        w.u64(self.windows_shed);
        w.usize(self.homes.len());
        for (id, state) in &self.homes {
            w.u64(*id);
            w.usize(state.template);
            w.u64(state.windows);
            w.u8(state.partial as u8);
            for v in state.cumulative.iter().chain(&state.latest) {
                w.f64(*v);
            }
            for acc in &state.stats {
                w.usize(acc.len());
                for &s in acc.samples() {
                    w.f64(s);
                }
            }
        }
        w.usize(self.flagged.len());
        for id in &self.flagged {
            w.u64(*id);
        }
        w.usize(self.first_detection.len());
        for (id, epoch) in &self.first_detection {
            w.u64(*id);
            w.u64(*epoch);
        }
        w.usize(self.epochs.len());
        for e in &self.epochs {
            w.u64(e.epoch);
            w.u64(e.homes);
            w.u64(e.alerts);
            w.u64(e.deduped);
        }
        w.into_bytes()
    }

    /// Restores a correlator from [`StreamCorrelator::checkpoint`]
    /// bytes. Continuing a restored correlator produces byte-identical
    /// state and outcome to never having checkpointed.
    pub fn restore(bytes: &[u8]) -> Result<StreamCorrelator, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let cfg = StreamConfig {
            min_deviation: r.f64()?,
            sigma: r.f64()?,
        };
        let epoch = r.u64()?;
        let windows_ingested = r.u64()?;
        let windows_shed = r.u64()?;
        let n_homes = r.usize()?;
        let mut homes = BTreeMap::new();
        for _ in 0..n_homes {
            let id = r.u64()?;
            let mut state = HomeState::new();
            state.template = r.usize()?;
            state.windows = r.u64()?;
            state.partial = r.u8()? != 0;
            for v in state.cumulative.iter_mut().chain(state.latest.iter_mut()) {
                *v = r.f64()?;
            }
            for acc in state.stats.iter_mut() {
                let len = r.usize()?;
                let mut samples = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    samples.push(r.f64()?);
                }
                // Samples were written sorted; re-folding keeps the
                // accumulator's invariant without trusting the buffer.
                *acc = RobustAccumulator::from_samples(&samples);
            }
            homes.insert(id, state);
        }
        let n_flagged = r.usize()?;
        let mut flagged = BTreeSet::new();
        for _ in 0..n_flagged {
            flagged.insert(r.u64()?);
        }
        let n_first = r.usize()?;
        let mut first_detection = BTreeMap::new();
        for _ in 0..n_first {
            let id = r.u64()?;
            first_detection.insert(id, r.u64()?);
        }
        let n_epochs = r.usize()?;
        let mut epochs = Vec::with_capacity(n_epochs.min(1 << 20));
        for _ in 0..n_epochs {
            epochs.push(EpochRecord {
                epoch: r.u64()?,
                homes: r.u64()?,
                alerts: r.u64()?,
                deduped: r.u64()?,
            });
        }
        r.finish()?;
        Ok(StreamCorrelator {
            cfg,
            epoch,
            windows_ingested,
            windows_shed,
            homes,
            flagged,
            first_detection,
            epochs,
            scratch: CorrelatorScratch::default(),
        })
    }
}

/// Replays a full window set epoch by epoch: groups `windows` by window
/// index, ingests epochs `0..epochs` in order, and returns the outcome.
/// `shed` is the fleet-wide count of windows evicted by the bounded
/// per-home buffers before reaching the correlator. Every home scores
/// against one population (template 0).
pub fn correlate_windows(
    cfg: StreamConfig,
    epochs: u64,
    windows: &[WindowSummary],
    shed: u64,
) -> StreamOutcome {
    let mut correlator = StreamCorrelator::new(cfg);
    correlator.note_shed(shed);
    let mut by_epoch: BTreeMap<u64, Vec<WindowSummary>> = BTreeMap::new();
    for w in windows {
        by_epoch.entry(w.window).or_default().push(w.clone());
    }
    for epoch in 0..epochs {
        let batch = by_epoch.remove(&epoch).unwrap_or_default();
        correlator.ingest_epoch(&batch);
    }
    correlator.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two clusters of quiet homes plus one home that turns critical
    /// from window `attack_from` on.
    fn synthetic_fleet(n_epochs: u64, attack_from: u64, deviant: u64) -> Vec<WindowSummary> {
        let mut windows = Vec::new();
        for home in 0..6u64 {
            for w in 0..n_epochs {
                let mut features = [0.0; STREAM_FEATURES];
                features[0] = 4.0 + home as f64 * 0.01; // evidence
                features[6] = 50.0 + home as f64 * 0.1; // forwarded
                features[8] = 5_000.0; // wire bytes
                features[9] = 60.0; // packets
                if home == deviant && w >= attack_from {
                    features[CRITICAL_DELTA] = 2.0;
                    features[8] = 90_000.0;
                    features[9] = 900.0;
                }
                windows.push(WindowSummary {
                    home,
                    window: w,
                    partial: false,
                    features,
                });
            }
        }
        windows
    }

    #[test]
    fn deviant_home_is_first_detected_at_its_attack_epoch_and_deduped_after() {
        let outcome = correlate_windows(StreamConfig::default(), 10, &synthetic_fleet(10, 4, 3), 0);
        assert_eq!(outcome.epochs.len(), 10);
        assert!(outcome.flagged.contains(&3), "{outcome:?}");
        assert_eq!(outcome.first_detection.get(&3), Some(&4), "{outcome:?}");
        // Epochs after first detection dedup instead of re-alerting.
        let after: u64 = outcome.epochs[5..].iter().map(|e| e.alerts).sum();
        let deduped: u64 = outcome.epochs[5..].iter().map(|e| e.deduped).sum();
        assert_eq!(after, 0, "{outcome:?}");
        assert!(deduped >= 5, "{outcome:?}");
        assert_eq!(outcome.windows_ingested, 60);
    }

    /// Quiet homes of two templates: `minority` homes (template 1) move
    /// ten times the traffic of the others (template 0), and every home
    /// differs a little from its neighbours.
    fn two_template_fleet(n_epochs: u64, homes: u64, minority: &[u64]) -> Vec<WindowSummary> {
        let mut windows = Vec::new();
        for home in 0..homes {
            let scale = if minority.contains(&home) { 10.0 } else { 1.0 };
            for w in 0..n_epochs {
                let mut features = [0.0; STREAM_FEATURES];
                features[0] = 4.0;
                features[8] = scale * 5_000.0 + home as f64 * 10.0;
                features[9] = scale * 60.0 + home as f64;
                windows.push(WindowSummary {
                    home,
                    window: w,
                    partial: false,
                    features,
                });
            }
        }
        windows
    }

    fn run(correlator: &mut StreamCorrelator, n_epochs: u64, windows: &[WindowSummary]) {
        for epoch in 0..n_epochs {
            let batch: Vec<WindowSummary> = windows
                .iter()
                .filter(|w| w.window == epoch)
                .cloned()
                .collect();
            correlator.ingest_epoch(&batch);
        }
    }

    #[test]
    fn minority_template_homes_behaving_like_their_template_are_never_flagged() {
        let minority = [7, 8];
        let windows = two_template_fleet(10, 9, &minority);
        let mut correlator = StreamCorrelator::new(StreamConfig::default());
        for home in 0..9 {
            let template = usize::from(minority.contains(&home));
            correlator.assign_template(home, template);
        }
        run(&mut correlator, 10, &windows);
        let outcome = correlator.outcome();
        assert!(outcome.flagged.is_empty(), "{outcome:?}");
        assert!(outcome.epochs.iter().all(|e| e.homes == 9));

        // The same homes in one population stand out at once: the
        // template split is what keeps them quiet.
        let pooled = correlate_windows(StreamConfig::default(), 10, &windows, 0);
        let flagged: Vec<u64> = pooled.flagged.iter().copied().collect();
        assert_eq!(flagged, minority, "{pooled:?}");
        assert_eq!(pooled.first_detection.get(&7), Some(&0));
    }

    #[test]
    fn a_home_whose_latest_window_spikes_is_flagged_in_that_epoch() {
        let mut windows = two_template_fleet(10, 6, &[]);
        for w in &mut windows {
            if w.home == 2 && w.window == 6 {
                w.features[8] = 90_000.0;
            }
        }
        let outcome = correlate_windows(StreamConfig::default(), 10, &windows, 0);
        let flagged: Vec<u64> = outcome.flagged.iter().copied().collect();
        assert_eq!(flagged, vec![2], "{outcome:?}");
        assert_eq!(outcome.first_detection.get(&2), Some(&6), "{outcome:?}");
        assert_eq!(outcome.epochs[6].alerts, 1);
    }

    #[test]
    fn outcome_is_arrival_order_independent() {
        let windows = synthetic_fleet(6, 2, 5);
        let mut reversed = windows.clone();
        reversed.reverse();
        let a = correlate_windows(StreamConfig::default(), 6, &windows, 0);
        let b = correlate_windows(StreamConfig::default(), 6, &reversed, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn missing_windows_and_shed_accounting_are_tolerated() {
        let mut windows = synthetic_fleet(5, 1, 2);
        // Home 4 truncates after two windows; one of home 0's windows is
        // shed before reaching the correlator.
        windows.retain(|w| !(w.home == 4 && w.window >= 2));
        windows.retain(|w| !(w.home == 0 && w.window == 3));
        let outcome = correlate_windows(StreamConfig::default(), 5, &windows, 1);
        assert_eq!(outcome.windows_shed, 1);
        assert_eq!(outcome.windows_ingested, windows.len() as u64);
        assert_eq!(outcome.epochs.len(), 5);
    }

    #[test]
    fn partial_homes_are_annotated() {
        let mut windows = synthetic_fleet(4, 1, 2);
        for w in &mut windows {
            if w.home == 1 {
                w.partial = true;
            }
        }
        let outcome = correlate_windows(StreamConfig::default(), 4, &windows, 0);
        assert_eq!(outcome.partial_homes, vec![1]);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_split() {
        let n_epochs = 8u64;
        let windows = synthetic_fleet(n_epochs, 3, 1);
        let mut by_epoch: BTreeMap<u64, Vec<WindowSummary>> = BTreeMap::new();
        for w in &windows {
            by_epoch.entry(w.window).or_default().push(w.clone());
        }
        // Two templates, so the assignments must survive the checkpoint
        // too (split 0 checkpoints them before any window arrives).
        let fresh = || {
            let mut correlator = StreamCorrelator::new(StreamConfig::default());
            for home in 0..6 {
                correlator.assign_template(home, (home % 2) as usize);
            }
            correlator
        };
        // Uninterrupted reference.
        let mut reference = fresh();
        for e in 0..n_epochs {
            reference.ingest_epoch(&by_epoch[&e]);
        }
        let reference_bytes = reference.checkpoint();

        for split in 0..=n_epochs {
            let mut first = fresh();
            for e in 0..split {
                first.ingest_epoch(&by_epoch[&e]);
            }
            let mid = first.checkpoint();
            let mut resumed = StreamCorrelator::restore(&mid).expect("restore");
            assert_eq!(resumed.epoch(), split);
            for e in split..n_epochs {
                resumed.ingest_epoch(&by_epoch[&e]);
            }
            assert_eq!(
                resumed.checkpoint(),
                reference_bytes,
                "split at epoch {split} diverged"
            );
            assert_eq!(resumed.outcome(), reference.outcome());
        }
    }

    #[test]
    fn restore_rejects_malformed_buffers() {
        let correlator = StreamCorrelator::new(StreamConfig::default());
        let bytes = correlator.checkpoint();
        assert_eq!(
            StreamCorrelator::restore(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Y';
        assert_eq!(
            StreamCorrelator::restore(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            StreamCorrelator::restore(&bad_version),
            Err(CheckpointError::UnsupportedVersion(99))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StreamCorrelator::restore(&trailing),
            Err(CheckpointError::TrailingBytes)
        );
        // And the empty round trip works.
        let restored = StreamCorrelator::restore(&bytes).expect("restore");
        assert_eq!(restored, correlator);
    }

    proptest! {
        /// Each home's stream score is exactly `robust_z` against the
        /// median/MAD that a [`RobustAccumulator`] computes over its own
        /// template's vectors, dimension by dimension.
        #[test]
        fn stream_score_equals_robust_z_against_template_accumulators(
            rows in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        any::<bool>(),
                        -1e4f64..1e4,
                        proptest::sample::select(vec![0.0, -0.0, 1.0, 5_000.0]),
                    )
                        .prop_map(|(tie, x, s)| if tie { s } else { x }),
                    SCORE_DIMS,
                ),
                1..24,
            ),
        ) {
            let block: Vec<f64> = rows.iter().flatten().copied().collect();
            let (mut column, mut deviations, mut scores) = (Vec::new(), Vec::new(), Vec::new());
            score_template(&block, &mut column, &mut deviations, &mut scores);
            prop_assert_eq!(scores.len(), rows.len());
            let (mut medians, mut mads) = (Vec::new(), Vec::new());
            for d in 0..SCORE_DIMS {
                let samples: Vec<f64> = rows.iter().map(|v| v[d]).collect();
                let acc = RobustAccumulator::from_samples(&samples);
                medians.push(acc.median());
                mads.push(acc.mad());
            }
            for (x, score) in rows.iter().zip(&scores) {
                prop_assert_eq!(score.to_bits(), robust_z(x, &medians, &mads).to_bits());
            }
        }
        /// End to end: over a few epochs of multi-template windows, the
        /// correlator's first detections equal a from-scratch oracle that
        /// rebuilds every home's vector from its windows and scores it
        /// against its own template's accumulators at each epoch.
        #[test]
        fn first_detections_equal_a_from_scratch_template_oracle(
            homes in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::collection::vec(
                        proptest::collection::vec(0u8..4, STREAM_FEATURES),
                        4,
                    ),
                ),
                2..16,
            ),
        ) {
            // Small integer levels make ties and zero MADs common; the
            // critical feature fires only at the top level.
            let value = |d: usize, k: u8| {
                if d == CRITICAL_DELTA {
                    f64::from(u8::from(k == 3))
                } else {
                    f64::from(k) * 10.0
                }
            };
            let window = |h: usize, e: usize| -> [f64; STREAM_FEATURES] {
                std::array::from_fn(|d| value(d, homes[h].1[e][d]))
            };
            let mut correlator = StreamCorrelator::new(StreamConfig::default());
            for (h, (template, _)) in homes.iter().enumerate() {
                correlator.assign_template(h as u64, *template);
            }
            let mut expected = BTreeMap::new();
            for e in 0..4 {
                let batch: Vec<WindowSummary> = (0..homes.len())
                    .map(|h| WindowSummary {
                        home: h as u64,
                        window: e as u64,
                        partial: false,
                        features: window(h, e),
                    })
                    .collect();
                correlator.ingest_epoch(&batch);

                let vectors: Vec<Vec<f64>> = (0..homes.len())
                    .map(|h| {
                        let windows: Vec<[f64; STREAM_FEATURES]> =
                            (0..=e).map(|w| window(h, w)).collect();
                        let mut v: Vec<f64> = (0..STREAM_FEATURES)
                            .map(|d| windows.iter().map(|w| w[d]).sum())
                            .collect();
                        v.extend((0..STREAM_FEATURES).map(|d| {
                            let samples: Vec<f64> = windows.iter().map(|w| w[d]).collect();
                            RobustAccumulator::from_samples(&samples).median()
                        }));
                        v.extend_from_slice(&windows[e]);
                        v
                    })
                    .collect();
                for (h, x) in vectors.iter().enumerate() {
                    let peers: Vec<&Vec<f64>> = vectors
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| homes[p].0 == homes[h].0)
                        .map(|(_, v)| v)
                        .collect();
                    let (mut medians, mut mads) = (Vec::new(), Vec::new());
                    for d in 0..SCORE_DIMS {
                        let samples: Vec<f64> = peers.iter().map(|v| v[d]).collect();
                        let acc = RobustAccumulator::from_samples(&samples);
                        medians.push(acc.median());
                        mads.push(acc.mad());
                    }
                    let z = robust_z(x, &medians, &mads);
                    if z >= 4.0 || x[CRITICAL_DELTA] > 0.0 {
                        expected.entry(h as u64).or_insert(e as u64);
                    }
                }
            }
            prop_assert_eq!(correlator.first_detection(), &expected);
        }
    }
}
