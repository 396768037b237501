//! Durable run-level checkpoint/resume: the `XLFR` snapshot.
//!
//! The stream layer's `XLFS` checkpoint makes the *correlator*
//! resumable; this module promotes that to the whole run. A run-level
//! snapshot captures everything the aggregation tier holds between the
//! homes→stream boundary and the end of the epoch loop:
//!
//! - the per-region mergeable slot state — tallies, robust accumulators
//!   (bit-exact via their retained f64 samples), candidate extreme-k
//!   lists, and the retained home rows (outcome + stream windows; the
//!   [`crate::spec::HomeSpec`] itself is **not** serialized — it is a
//!   pure function of `(master_seed, id)` and is re-stamped at load);
//! - once the stream pass starts: the epoch cursor, the embedded `XLFS`
//!   correlator checkpoint, each campaign engine's mutable state, the
//!   config auditor's observed fingerprints, and the full command bus.
//!
//! Resume rebuilds every pure derivation from the spec and overlays the
//! serialized mutable state, then replays only the post-snapshot epochs
//! — the resumed report is **byte-identical** to the uninterrupted run.
//!
//! Framing reuses the stream layer's little-endian [`Writer`]/[`Reader`]
//! so a snapshot is one self-describing byte string, sealed with a
//! trailing FNV-1a checksum — any byte flipped at rest is rejected as
//! [`SnapshotError::Corrupted`] before a single field is parsed. Files
//! are written atomically (tmp + rename) as numbered generations
//! (`xlfr-<gen>.snap`); the loader walks generations newest-first and
//! falls back past corrupted, truncated, or torn files to the last good
//! one. Decoding never panics: every framing violation is a structured
//! [`SnapshotError`].

use crate::engine::{HomeBuildError, HomeStream};
use crate::region::RegionSlot;
use crate::spec::{FleetSpec, HomeSpec, FLEET_FAULT_KINDS};
use crate::supervise::{HomeOutcome, HomeRunError};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use xlf_core::framework::HomeReport;
use xlf_mgmt::{CampaignEngine, CommandBus, ConfigAuditor};
use xlf_stream::{
    CheckpointError, Reader, StreamCorrelator, WindowSummary, Writer, STREAM_FEATURES,
};

/// Magic prefix of a run-level snapshot file.
pub const RUN_SNAPSHOT_MAGIC: &[u8; 4] = b"XLFR";
/// Current run-snapshot format version. Version 2 embeds the version-2
/// `XLFS` correlator checkpoint (per-template robust-z scoring);
/// version-1 files are rejected with
/// [`SnapshotError::UnsupportedVersion`], and a resume falls back past
/// them.
pub const RUN_SNAPSHOT_VERSION: u32 = 2;

const PHASE_HOMES: u8 = 0;
const PHASE_STREAM: u8 = 1;

/// Why a run snapshot could not be written or restored. Corrupted bytes
/// always come back as one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte string ended (or a framing length lied) before the
    /// state was complete, or embedded content was malformed.
    Truncated,
    /// The trailing checksum does not match the payload: the file was
    /// corrupted at rest (any single flipped byte lands here).
    Corrupted,
    /// The bytes do not start with `XLFR`.
    BadMagic,
    /// A future (or corrupted) format version this build cannot read.
    UnsupportedVersion(u32),
    /// Well-formed state followed by leftover bytes.
    TrailingBytes,
    /// The snapshot was cut from a different run (seed, home count,
    /// region layout, or epoch plan differs from the resuming spec).
    SpecMismatch,
    /// The snapshot directory could not be read or written.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "run snapshot is truncated or malformed"),
            SnapshotError::Corrupted => write!(f, "run snapshot failed its checksum"),
            SnapshotError::BadMagic => write!(f, "not a run snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported run-snapshot version {v}")
            }
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after run snapshot"),
            SnapshotError::SpecMismatch => {
                write!(f, "run snapshot belongs to a different fleet spec")
            }
            SnapshotError::Io(e) => write!(f, "run snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CheckpointError> for SnapshotError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Truncated => SnapshotError::Truncated,
            CheckpointError::BadMagic => SnapshotError::BadMagic,
            CheckpointError::UnsupportedVersion(v) => SnapshotError::UnsupportedVersion(v),
            CheckpointError::TrailingBytes => SnapshotError::TrailingBytes,
        }
    }
}

fn io_err(e: std::io::Error) -> SnapshotError {
    SnapshotError::Io(e.to_string())
}

/// FNV-1a over the payload — the trailing integrity checksum of every
/// generation file. Not cryptographic; it exists so that a flipped bit
/// at rest surfaces as [`SnapshotError::Corrupted`] instead of silently
/// perturbing a restored f64 accumulator.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the payload checksum, producing the on-disk byte string.
fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Splits off and verifies the trailing checksum, returning the payload.
fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(SnapshotError::Truncated);
    };
    let (payload, sum) = bytes.split_at(split);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(sum);
    if fnv1a(payload) != u64::from_le_bytes(stored) {
        return Err(SnapshotError::Corrupted);
    }
    Ok(payload)
}

/// A deterministic point in the aggregation timeline where the chaos
/// harness kills the run (see [`crate::chaos`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After every home outcome is consumed and the homes-phase snapshot
    /// is cut, before the stream pass starts.
    AfterHomes,
    /// At the top of stream epoch `n`, before any of that epoch's work
    /// (campaign waves, audits, ingestion) runs.
    Epoch(u64),
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillPoint::AfterHomes => write!(f, "after-homes"),
            KillPoint::Epoch(e) => write!(f, "epoch-{e}"),
        }
    }
}

/// Where and how often run snapshots are cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSnapshotPolicy {
    /// Cut a stream-phase snapshot every `every` epochs (the homes-phase
    /// snapshot at the homes→stream boundary is always cut).
    pub every: u64,
    /// Directory the generation files live in (created on first write).
    pub dir: PathBuf,
}

/// The identity a snapshot must match to be resumable: everything that
/// shapes the stamped fleet and the epoch plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotIdentity {
    /// The spec's master seed.
    pub master_seed: u64,
    /// Stamped home count.
    pub homes: u64,
    /// Logical region count.
    pub region_slots: u64,
    /// Stream epochs the run correlates over (0 in batch mode).
    pub stream_epochs: u64,
}

impl SnapshotIdentity {
    /// The identity of runs stamped from `spec`.
    pub fn of(spec: &FleetSpec) -> Self {
        SnapshotIdentity {
            master_seed: spec.master_seed,
            homes: spec.homes as u64,
            region_slots: spec.region_slots as u64,
            stream_epochs: spec.stream_epochs(),
        }
    }
}

/// The phase a decoded snapshot resumes into.
pub(crate) enum ResumePhase {
    /// All homes consumed; the stream pass has not started.
    HomesDone,
    /// Mid-stream: fast-forward the epoch loop to `next_epoch` with the
    /// serialized correlator/engine/auditor/bus state overlaid.
    Stream(StreamResume),
}

/// The stream-phase state a resume overlays onto freshly rebuilt
/// engines (blobs stay opaque here; the stream pass decodes them against
/// the live objects it just constructed from the spec).
pub(crate) struct StreamResume {
    /// First epoch the resumed loop actually runs.
    pub(crate) next_epoch: u64,
    /// Embedded `XLFS` correlator checkpoint.
    pub(crate) correlator: Vec<u8>,
    /// Per-campaign mutable engine state, in spec order.
    pub(crate) engines: Vec<Vec<u8>>,
    /// Config-auditor mutable state, iff the spec audits.
    pub(crate) auditor: Option<Vec<u8>>,
    /// The full command bus at the snapshot point.
    pub(crate) bus: CommandBus,
}

/// A decoded, spec-verified run snapshot.
pub(crate) struct RunSnapshot {
    /// Restored per-region slot state, ascending by region.
    pub(crate) slots: Vec<RegionSlot>,
    /// Where the run resumes.
    pub(crate) resume: ResumePhase,
}

/// Threads the snapshot/kill/resume machinery through one aggregation
/// pass. A passive ctx (no policy, no kill, no resume) makes the pass
/// behave exactly as before this module existed.
pub(crate) struct RunCtx {
    identity: SnapshotIdentity,
    pub(crate) policy: Option<RunSnapshotPolicy>,
    pub(crate) kill: Option<KillPoint>,
    pub(crate) resume: Option<ResumePhase>,
    /// The slots blob serialized once at the homes→stream boundary and
    /// reused byte-for-byte in every later stream-phase snapshot.
    slots_blob: Vec<u8>,
    generation: u64,
    /// Snapshot files durably written by this pass.
    pub(crate) snapshots_written: u64,
    /// Total bytes across those files.
    pub(crate) snapshot_bytes: u64,
}

impl RunCtx {
    pub(crate) fn new(
        identity: SnapshotIdentity,
        policy: Option<RunSnapshotPolicy>,
        kill: Option<KillPoint>,
        resume: Option<ResumePhase>,
    ) -> Self {
        RunCtx {
            identity,
            policy,
            kill,
            resume,
            slots_blob: Vec::new(),
            generation: 0,
            snapshots_written: 0,
            snapshot_bytes: 0,
        }
    }

    /// A ctx that snapshots nothing, kills nothing, resumes nothing.
    pub(crate) fn passive(identity: SnapshotIdentity) -> Self {
        RunCtx::new(identity, None, None, None)
    }

    /// Stream-phase snapshot cadence, when a policy is set.
    pub(crate) fn snapshot_every(&self) -> Option<u64> {
        self.policy.as_ref().map(|p| p.every)
    }

    /// Installs the homes→stream boundary blob later snapshots embed.
    pub(crate) fn set_slots_blob(&mut self, blob: Vec<u8>) {
        self.slots_blob = blob;
    }

    fn header(&self) -> Writer {
        let mut w = Writer::new();
        w.bytes(RUN_SNAPSHOT_MAGIC);
        w.u32(RUN_SNAPSHOT_VERSION);
        w.u64(self.identity.master_seed);
        w.u64(self.identity.homes);
        w.u64(self.identity.region_slots);
        w.u64(self.identity.stream_epochs);
        w.usize(self.slots_blob.len());
        w.bytes(&self.slots_blob);
        w
    }

    /// Cuts the homes-phase snapshot (generation 0).
    pub(crate) fn write_homes_snapshot(&mut self) -> Result<(), SnapshotError> {
        let mut w = self.header();
        w.u8(PHASE_HOMES);
        self.write_generation(w.into_bytes())
    }

    /// Cuts a stream-phase snapshot: the epoch cursor plus every piece
    /// of mutable stream/control-plane state.
    pub(crate) fn write_stream_snapshot(
        &mut self,
        next_epoch: u64,
        correlator: &StreamCorrelator,
        engines: &[CampaignEngine],
        auditor: Option<&ConfigAuditor>,
        bus: &CommandBus,
    ) -> Result<(), SnapshotError> {
        let mut w = self.header();
        w.u8(PHASE_STREAM);
        w.u64(next_epoch);
        let corr = correlator.checkpoint();
        w.usize(corr.len());
        w.bytes(&corr);
        w.usize(engines.len());
        for engine in engines {
            let mut ew = Writer::new();
            engine.checkpoint_into(&mut ew);
            let blob = ew.into_bytes();
            w.usize(blob.len());
            w.bytes(&blob);
        }
        match auditor {
            Some(a) => {
                w.u8(1);
                let mut aw = Writer::new();
                a.checkpoint_into(&mut aw);
                let blob = aw.into_bytes();
                w.usize(blob.len());
                w.bytes(&blob);
            }
            None => w.u8(0),
        }
        bus.checkpoint_into(&mut w);
        self.write_generation(w.into_bytes())
    }

    /// Atomically lands `body` as the next generation file: write to a
    /// dot-tmp sibling, then rename — a reader (or a kill) never sees a
    /// half-written snapshot under the real name. The previous
    /// generation is kept as the corruption fallback; older ones are
    /// pruned.
    fn write_generation(&mut self, body: Vec<u8>) -> Result<(), SnapshotError> {
        let Some(policy) = self.policy.as_ref() else {
            return Ok(());
        };
        let body = seal(body);
        fs::create_dir_all(&policy.dir).map_err(io_err)?;
        let name = generation_name(self.generation);
        let tmp = policy.dir.join(format!(".{name}.tmp"));
        let path = policy.dir.join(&name);
        fs::write(&tmp, &body).map_err(io_err)?;
        fs::rename(&tmp, &path).map_err(io_err)?;
        self.snapshots_written += 1;
        self.snapshot_bytes += body.len() as u64;
        if self.generation >= 2 {
            let _ = fs::remove_file(policy.dir.join(generation_name(self.generation - 2)));
        }
        self.generation += 1;
        Ok(())
    }
}

fn generation_name(generation: u64) -> String {
    format!("xlfr-{generation:06}.snap")
}

/// Serializes the gathered region slots (the homes→stream boundary
/// state) into one blob.
pub(crate) fn encode_slots(slots: &[RegionSlot]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(slots.len());
    for slot in slots {
        slot.checkpoint_into(&mut w);
    }
    w.into_bytes()
}

fn decode_slots(bytes: &[u8], spec: &FleetSpec) -> Result<Vec<RegionSlot>, SnapshotError> {
    let specs: BTreeMap<u64, HomeSpec> = spec.stamp().into_iter().map(|hs| (hs.id, hs)).collect();
    let mut r = Reader::new(bytes);
    let n = r.usize()?;
    if n != spec.region_slots.max(1) {
        return Err(SnapshotError::Truncated);
    }
    let mut slots = Vec::new();
    for _ in 0..n {
        slots.push(RegionSlot::restore_from(
            &mut r,
            spec.region_candidates,
            &specs,
        )?);
    }
    r.finish()?;
    Ok(slots)
}

/// Decodes one snapshot byte string against the resuming spec. The
/// trailing checksum is verified first, so any bit flipped at rest is
/// rejected before a single field is parsed.
pub(crate) fn decode(bytes: &[u8], spec: &FleetSpec) -> Result<RunSnapshot, SnapshotError> {
    let payload = unseal(bytes)?;
    let mut r = Reader::new(payload);
    if r.bytes(RUN_SNAPSHOT_MAGIC.len())? != RUN_SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != RUN_SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let identity = SnapshotIdentity {
        master_seed: r.u64()?,
        homes: r.u64()?,
        region_slots: r.u64()?,
        stream_epochs: r.u64()?,
    };
    if identity != SnapshotIdentity::of(spec) {
        return Err(SnapshotError::SpecMismatch);
    }
    let blob_len = r.usize()?;
    let slots = decode_slots(r.bytes(blob_len)?, spec)?;
    let resume = match r.u8()? {
        PHASE_HOMES => ResumePhase::HomesDone,
        PHASE_STREAM => {
            let next_epoch = r.u64()?;
            if next_epoch > identity.stream_epochs {
                return Err(SnapshotError::Truncated);
            }
            let len = r.usize()?;
            let correlator = r.bytes(len)?.to_vec();
            // Validate the embedded XLFS checkpoint now: a corrupted
            // correlator blob fails decode here, so the generation
            // walker can fall back to an earlier file instead of the
            // resume failing halfway into the stream pass.
            StreamCorrelator::restore(&correlator)?;
            let n = r.usize()?;
            if n != spec.campaigns.len() {
                return Err(SnapshotError::Truncated);
            }
            let mut engines = Vec::new();
            for _ in 0..n {
                let len = r.usize()?;
                engines.push(r.bytes(len)?.to_vec());
            }
            let auditor = match r.u8()? {
                0 => None,
                1 => {
                    let len = r.usize()?;
                    Some(r.bytes(len)?.to_vec())
                }
                _ => return Err(SnapshotError::Truncated),
            };
            if auditor.is_some() != spec.config_audit.is_some() {
                return Err(SnapshotError::Truncated);
            }
            let bus = CommandBus::restore_from(&mut r)?;
            ResumePhase::Stream(StreamResume {
                next_epoch,
                correlator,
                engines,
                auditor,
                bus,
            })
        }
        _ => return Err(SnapshotError::Truncated),
    };
    r.finish()?;
    Ok(RunSnapshot { slots, resume })
}

/// Generation files in `dir`, newest first. Unreadable directories and
/// foreign filenames are skipped silently — the caller falls back to a
/// full re-run when nothing is usable.
pub(crate) fn generation_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut gens: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(num) = name
            .strip_prefix("xlfr-")
            .and_then(|s| s.strip_suffix(".snap"))
        else {
            continue;
        };
        let Ok(generation) = num.parse::<u64>() else {
            continue;
        };
        gens.push((generation, path));
    }
    gens.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
    gens.into_iter().map(|(_, p)| p).collect()
}

// ---- shared serde helpers (length-prefixed, little-endian) ----

pub(crate) fn write_string(w: &mut Writer, s: &str) {
    w.usize(s.len());
    w.bytes(s.as_bytes());
}

pub(crate) fn read_string(r: &mut Reader) -> Result<String, CheckpointError> {
    let len = r.usize()?;
    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| CheckpointError::Truncated)
}

pub(crate) fn write_bool(w: &mut Writer, b: bool) {
    w.u8(u8::from(b));
}

pub(crate) fn read_bool(r: &mut Reader) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Truncated),
    }
}

fn write_opt_f64(w: &mut Writer, v: Option<f64>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.f64(x);
        }
        None => w.u8(0),
    }
}

fn read_opt_f64(r: &mut Reader) -> Result<Option<f64>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(CheckpointError::Truncated),
    }
}

fn write_report(w: &mut Writer, rep: &HomeReport) {
    w.u64(rep.seed);
    w.usize(rep.evidence_total);
    w.u64(rep.evidence_dropped);
    w.u64(rep.evidence_shed);
    for &n in &rep.evidence_by_layer {
        w.usize(n);
    }
    w.usize(rep.warning_alerts);
    w.usize(rep.critical_alerts);
    w.usize(rep.quarantined.len());
    for q in &rep.quarantined {
        write_string(w, q);
    }
    write_string(w, &rep.top_device);
    w.f64(rep.top_score);
    w.u64(rep.forwarded);
    w.u64(rep.dropped_packets);
    w.usize(rep.features.len());
    for &f in &rep.features {
        w.f64(f);
    }
}

fn read_report(r: &mut Reader) -> Result<HomeReport, CheckpointError> {
    let seed = r.u64()?;
    let evidence_total = r.usize()?;
    let evidence_dropped = r.u64()?;
    let evidence_shed = r.u64()?;
    let mut evidence_by_layer = [0usize; 3];
    for slot in &mut evidence_by_layer {
        *slot = r.usize()?;
    }
    let warning_alerts = r.usize()?;
    let critical_alerts = r.usize()?;
    let n_quarantined = r.usize()?;
    let mut quarantined = Vec::new();
    for _ in 0..n_quarantined {
        quarantined.push(read_string(r)?);
    }
    let top_device = read_string(r)?;
    let top_score = r.f64()?;
    let forwarded = r.u64()?;
    let dropped_packets = r.u64()?;
    let n_features = r.usize()?;
    let mut features = Vec::new();
    for _ in 0..n_features {
        features.push(r.f64()?);
    }
    Ok(HomeReport {
        seed,
        evidence_total,
        evidence_dropped,
        evidence_shed,
        evidence_by_layer,
        warning_alerts,
        critical_alerts,
        quarantined,
        top_device,
        top_score,
        forwarded,
        dropped_packets,
        features,
    })
}

pub(crate) fn write_stream(w: &mut Writer, s: &HomeStream) {
    w.u64(s.shed);
    w.usize(s.windows.len());
    for win in &s.windows {
        w.u64(win.home);
        w.u64(win.window);
        write_bool(w, win.partial);
        for &f in &win.features {
            w.f64(f);
        }
    }
}

pub(crate) fn read_stream(r: &mut Reader) -> Result<HomeStream, CheckpointError> {
    let shed = r.u64()?;
    let n = r.usize()?;
    let mut windows = Vec::new();
    for _ in 0..n {
        let home = r.u64()?;
        let window = r.u64()?;
        let partial = read_bool(r)?;
        let mut features = [0.0f64; STREAM_FEATURES];
        for f in &mut features {
            *f = r.f64()?;
        }
        windows.push(WindowSummary {
            home,
            window,
            partial,
            features,
        });
    }
    Ok(HomeStream { windows, shed })
}

pub(crate) fn write_outcome(w: &mut Writer, outcome: &HomeOutcome) {
    match outcome {
        HomeOutcome::Ok {
            report,
            observer_accuracy,
        } => {
            w.u8(0);
            write_report(w, report);
            write_opt_f64(w, *observer_accuracy);
        }
        HomeOutcome::Degraded {
            report,
            observer_accuracy,
            events_used,
        } => {
            w.u8(1);
            write_report(w, report);
            write_opt_f64(w, *observer_accuracy);
            w.u64(*events_used);
        }
        HomeOutcome::Failed(e) => {
            w.u8(2);
            w.u64(e.home);
            w.u32(e.attempts);
            write_string(w, e.fault);
            write_string(w, &e.panic);
        }
        HomeOutcome::BuildFailed(e) => {
            w.u8(3);
            w.u64(e.home);
            write_string(w, &e.reason);
        }
    }
}

pub(crate) fn read_outcome(r: &mut Reader) -> Result<HomeOutcome, CheckpointError> {
    match r.u8()? {
        0 => {
            let report = read_report(r)?;
            let observer_accuracy = read_opt_f64(r)?;
            Ok(HomeOutcome::Ok {
                report,
                observer_accuracy,
            })
        }
        1 => {
            let report = read_report(r)?;
            let observer_accuracy = read_opt_f64(r)?;
            let events_used = r.u64()?;
            Ok(HomeOutcome::Degraded {
                report,
                observer_accuracy,
                events_used,
            })
        }
        2 => {
            let home = r.u64()?;
            let attempts = r.u32()?;
            let fault_name = read_string(r)?;
            // `HomeRunError::fault` is a `&'static str` drawn from the
            // fault-kind table; restore by name lookup.
            let fault = FLEET_FAULT_KINDS
                .iter()
                .map(|f| f.name())
                .find(|n| *n == fault_name)
                .ok_or(CheckpointError::Truncated)?;
            let panic = read_string(r)?;
            Ok(HomeOutcome::Failed(HomeRunError {
                home,
                attempts,
                fault,
                panic,
            }))
        }
        3 => {
            let home = r.u64()?;
            let reason = read_string(r)?;
            Ok(HomeOutcome::BuildFailed(HomeBuildError { home, reason }))
        }
        _ => Err(CheckpointError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_report(seed: u64) -> HomeReport {
        HomeReport {
            seed,
            evidence_total: 42,
            evidence_dropped: 3,
            evidence_shed: 1,
            evidence_by_layer: [20, 15, 7],
            warning_alerts: 4,
            critical_alerts: 1,
            quarantined: vec!["cam".to_string()],
            top_device: "cam".to_string(),
            top_score: 0.875,
            forwarded: 900,
            dropped_packets: 17,
            features: vec![1.5, -0.25, 3.0],
        }
    }

    fn roundtrip_outcome(outcome: &HomeOutcome) -> HomeOutcome {
        let mut w = Writer::new();
        write_outcome(&mut w, outcome);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored = read_outcome(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        restored
    }

    #[test]
    fn every_outcome_variant_roundtrips_bit_exactly() {
        let outcomes = [
            HomeOutcome::Ok {
                report: sample_report(1),
                observer_accuracy: Some(0.75),
            },
            HomeOutcome::Ok {
                report: sample_report(2),
                observer_accuracy: None,
            },
            HomeOutcome::Degraded {
                report: sample_report(3),
                observer_accuracy: None,
                events_used: 1234,
            },
            HomeOutcome::Failed(HomeRunError {
                home: 7,
                attempts: 2,
                fault: FLEET_FAULT_KINDS[7].name(),
                panic: "chaos-panic: injected simulation fault in home 7".to_string(),
            }),
            HomeOutcome::BuildFailed(HomeBuildError {
                home: 9,
                reason: "template index 99 out of range (1 templates)".to_string(),
            }),
        ];
        for outcome in &outcomes {
            assert_eq!(&roundtrip_outcome(outcome), outcome);
        }
    }

    #[test]
    fn a_stream_with_windows_roundtrips_bit_exactly() {
        let stream = HomeStream {
            windows: vec![
                WindowSummary {
                    home: 3,
                    window: 0,
                    partial: false,
                    features: [1.0; STREAM_FEATURES],
                },
                WindowSummary {
                    home: 3,
                    window: 1,
                    partial: true,
                    features: [-0.5; STREAM_FEATURES],
                },
            ],
            shed: 2,
        };
        let mut w = Writer::new();
        write_stream(&mut w, &stream);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_stream(&mut r).expect("roundtrip"), stream);
        r.finish().expect("no trailing bytes");
    }

    #[test]
    fn an_unknown_fault_name_is_a_structured_error() {
        let mut w = Writer::new();
        w.u8(2);
        w.u64(1);
        w.u32(1);
        write_string(&mut w, "not-a-fault-kind");
        write_string(&mut w, "boom");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_outcome(&mut r), Err(CheckpointError::Truncated));
    }

    proptest! {
        /// Arbitrary bytes fed to the run-snapshot decoder must come
        /// back as a structured error (or, vanishingly, a decode) —
        /// never a panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let spec = FleetSpec::new(7, 4);
            let _ = decode(&bytes, &spec);
        }
    }

    /// Runs a tiny streamed fleet under a snapshot policy and returns
    /// the newest on-disk generation's bytes plus its spec — real prey
    /// for the corruption tests below.
    fn sealed_snapshot(seed: u64) -> (Vec<u8>, FleetSpec) {
        let dir = crate::chaos::scratch_dir("snapunit");
        let spec = FleetSpec::new(seed, 4)
            .with_horizon(xlf_simnet::Duration::from_secs(180))
            .with_correlation_interval(60)
            .with_run_snapshot_every(1, &dir);
        crate::engine::run_fleet(&spec, &crate::metrics::FleetMetrics::new()).expect("fleet runs");
        let path = generation_paths(&dir)
            .into_iter()
            .next()
            .expect("a generation exists");
        let bytes = fs::read(path).expect("read snapshot");
        let _ = fs::remove_dir_all(&dir);
        (bytes, spec)
    }

    /// Sampled byte positions across `len`: both ends plus a stride
    /// through the middle, so header, slots blob, stream state, and
    /// checksum regions are all hit without an O(n²) full scan.
    fn sampled_positions(len: usize) -> Vec<usize> {
        let mut pos: Vec<usize> = (0..len).step_by(97).collect();
        pos.extend([0, len / 2, len.saturating_sub(1)]);
        pos.retain(|&p| p < len);
        pos.sort_unstable();
        pos.dedup();
        pos
    }

    #[test]
    fn a_pristine_generation_file_decodes() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0001);
        assert!(decode(&bytes, &spec).is_ok());
    }

    #[test]
    fn any_single_flipped_byte_is_caught_by_the_checksum() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0002);
        for p in sampled_positions(bytes.len()) {
            let mut dirty = bytes.clone();
            dirty[p] ^= 0xA5;
            assert_eq!(
                decode(&dirty, &spec).err(),
                Some(SnapshotError::Corrupted),
                "flip at byte {p} slipped past the checksum"
            );
        }
    }

    #[test]
    fn truncation_at_any_point_is_a_structured_error() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0003);
        // Raw truncation (checksum torn off or mismatched).
        for len in sampled_positions(bytes.len()) {
            assert!(decode(&bytes[..len], &spec).is_err(), "raw cut at {len}");
        }
        // Re-sealed truncation: a valid checksum over a cut payload
        // exercises the framing-level truncation paths in the decoder.
        let payload = unseal(&bytes).expect("pristine snapshot unseals");
        for len in sampled_positions(payload.len()) {
            let cut = seal(payload[..len].to_vec());
            assert!(
                decode(&cut, &spec).is_err(),
                "re-sealed cut at {len} decoded"
            );
        }
    }

    #[test]
    fn wrong_magic_and_wrong_version_are_structured_errors() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0004);
        let payload = unseal(&bytes).expect("pristine snapshot unseals");

        let mut magic = payload.to_vec();
        magic[0] = b'Y';
        assert_eq!(
            decode(&seal(magic), &spec).err(),
            Some(SnapshotError::BadMagic)
        );

        let mut version = payload.to_vec();
        version[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            decode(&seal(version), &spec).err(),
            Some(SnapshotError::UnsupportedVersion(999))
        );
    }

    #[test]
    fn old_format_snapshots_are_rejected_by_version() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0006);
        let payload = unseal(&bytes).expect("pristine snapshot unseals");
        assert_eq!(payload[4..8], RUN_SNAPSHOT_VERSION.to_le_bytes());

        // A version-1 run snapshot.
        let mut v1 = payload.to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode(&seal(v1), &spec).err(),
            Some(SnapshotError::UnsupportedVersion(1))
        );

        // A current run snapshot wrapping a version-1 correlator
        // checkpoint: the embedded blob is checked at decode time.
        let at = payload
            .windows(4)
            .position(|w| w == b"XLFS")
            .expect("a stream-phase snapshot embeds the correlator");
        let mut nested = payload.to_vec();
        nested[at + 4..at + 8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode(&seal(nested), &spec).err(),
            Some(SnapshotError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn a_snapshot_from_a_different_spec_is_rejected() {
        let (bytes, spec) = sealed_snapshot(0xC0DE_0005);
        let foreign = FleetSpec::new(spec.master_seed ^ 1, 4)
            .with_horizon(xlf_simnet::Duration::from_secs(180))
            .with_correlation_interval(60);
        assert_eq!(
            decode(&bytes, &foreign).err(),
            Some(SnapshotError::SpecMismatch)
        );
    }
}
