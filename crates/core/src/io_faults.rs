//! Seeded storage fault injection: the storage stream of the shared
//! plan, and the global fault ledger.
//!
//! An [`IoFaultPlan`] is the shared seeded plan of `colt_os_mem::faults`
//! over the storage kinds ([`IoFaultKind`]), consulted by
//! [`crate::vfs::FaultyVfs`] at every failure-prone storage operation —
//! writes (ENOSPC, short/torn writes), reads (EIO, bit flips), fsyncs
//! (failed and *lying*), and renames ([`StorageStream`]). Like every
//! stream it replays identically for a given config: one base draw per
//! decision, extra draws (kind, flip position, torn length) only on a
//! hit.
//!
//! The module also owns the process-global **ledger** the torture
//! harness audits: every injected error carries a `colt-io-fault[...]`
//! marker in its message, every degradation site that handles a storage
//! error calls [`account`], and every read-time bit flip is recorded
//! against its path until a consumer *detects* the corruption and calls
//! [`confirm_flip`]. The `repro torture` verdict "faults injected ==
//! faults accounted" is an identity over this ledger: it fails if any
//! `Vfs` call site swallows an injected error without accounting, or if
//! any flipped read is accepted without its corruption being noticed.
//! See DESIGN.md §16.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use colt_os_mem::faults::{Counts, FaultKind, FaultPlan};

/// Marker prefix carried in the message of every injected [`io::Error`];
/// [`classify`] recognises it, so accounting never counts a *real*
/// filesystem error as injected.
const MARKER: &str = "colt-io-fault[";

/// The storage fault taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoFaultKind {
    /// A write fails with no bytes accepted (disk full).
    Enospc,
    /// A write lands a prefix of the buffer, then fails (torn write).
    ShortWrite,
    /// A read fails outright.
    ReadEio,
    /// A read succeeds but one bit of the returned buffer is flipped.
    BitFlip,
    /// An fsync fails honestly: the caller knows durability was not
    /// achieved.
    SyncFail,
    /// An fsync *lies*: returns Ok without making anything durable. The
    /// loss only surfaces at the next power cut.
    SyncLie,
    /// A rename fails before taking effect.
    RenameFail,
    /// Any operation attempted after the simulated power-cut point (the
    /// disk is dead until the "reboot", i.e. [`crate::vfs::FaultyVfs::power_cut`]).
    PostCut,
}

impl IoFaultKind {
    /// Stable name used in the error marker and counter reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Enospc => "enospc",
            Self::ShortWrite => "short-write",
            Self::ReadEio => "read-eio",
            Self::BitFlip => "bit-flip",
            Self::SyncFail => "sync-fail",
            Self::SyncLie => "sync-lie",
            Self::RenameFail => "rename-fail",
            Self::PostCut => "post-cut",
        }
    }

    fn error_kind(self) -> io::ErrorKind {
        match self {
            Self::Enospc => io::ErrorKind::StorageFull,
            Self::ShortWrite => io::ErrorKind::WriteZero,
            _ => io::ErrorKind::Other,
        }
    }
}

/// Builds the tagged [`io::Error`] for an injected fault.
pub fn injected_error(kind: IoFaultKind, path: &Path) -> io::Error {
    io::Error::new(
        kind.error_kind(),
        format!("{MARKER}{}] injected on {}", kind.name(), path.display()),
    )
}

/// Recognises an injected error by its marker. Real filesystem errors
/// return `None`.
pub fn classify(e: &io::Error) -> Option<IoFaultKind> {
    let msg = e.to_string();
    let rest = msg.split(MARKER).nth(1)?;
    let name = rest.split(']').next()?;
    IoFaultKind::ALL.iter().copied().find(|k| k.name() == name)
}

impl IoFaultKind {
    /// Does this kind surface as an [`io::Error`]? Those are the kinds the
    /// accounted side of the ledger matches exactly; bit flips (detected
    /// via the flip ledger) and lying fsyncs (latent until the power cut)
    /// are audited by other verdicts.
    pub fn is_error(self) -> bool {
        !matches!(self, Self::BitFlip | Self::SyncLie)
    }
}

impl FaultKind for IoFaultKind {
    const STREAM: u64 = 0x10FA_017D_5EED_D15C;
    const ALL: &'static [Self] = &[
        Self::Enospc,
        Self::ShortWrite,
        Self::ReadEio,
        Self::BitFlip,
        Self::SyncFail,
        Self::SyncLie,
        Self::RenameFail,
        Self::PostCut,
    ];
}

/// Per-kind storage-fault counters: the plan keeps one (injections), the
/// ledger another (errors accounted at degradation sites).
pub type IoFaultCounts = Counts<IoFaultKind>;

/// Faults of the error kinds ([`IoFaultKind::is_error`]).
pub fn errors(counts: &IoFaultCounts) -> u64 {
    IoFaultKind::ALL.iter().filter(|k| k.is_error()).map(|&k| counts.get(k)).sum()
}

/// `(name, injected, accounted)` rows of the error kinds, for reports.
pub fn error_rows(
    injected: &IoFaultCounts,
    accounted: &IoFaultCounts,
) -> Vec<(&'static str, u64, u64)> {
    IoFaultKind::ALL
        .iter()
        .filter(|k| k.is_error())
        .map(|&k| (k.name(), injected.get(k), accounted.get(k)))
        .collect()
}

/// A live, seeded stream of storage-fault decisions.
pub type IoFaultPlan = FaultPlan<IoFaultKind>;

/// The storage stream's decision points. A firing write, read or fsync
/// draws once more to pick its kind; [`FaultPlan::extra`] shapes the
/// fault further (flip position, torn-write length).
pub trait StorageStream {
    /// The fate of one write.
    fn write_fault(&mut self) -> Option<IoFaultKind>;
    /// The fate of one read of `len` bytes. Zero-length reads cannot
    /// carry a flipped bit, so a hit there downgrades to EIO.
    fn read_fault(&mut self, len: usize) -> Option<IoFaultKind>;
    /// The fate of one fsync (file or directory).
    fn sync_fault(&mut self) -> Option<IoFaultKind>;
    /// Does this rename fail before taking effect?
    fn rename_fault(&mut self) -> bool;
    /// Records a dead-disk refusal (not a draw: every post-cut operation
    /// fails unconditionally).
    fn note_post_cut(&mut self);
}

impl StorageStream for IoFaultPlan {
    fn write_fault(&mut self) -> Option<IoFaultKind> {
        self.decide(|p| {
            if p.extra() & 1 == 0 {
                IoFaultKind::Enospc
            } else {
                IoFaultKind::ShortWrite
            }
        })
    }

    fn read_fault(&mut self, len: usize) -> Option<IoFaultKind> {
        self.decide(|p| {
            if len > 0 && p.extra() & 1 == 0 {
                IoFaultKind::BitFlip
            } else {
                IoFaultKind::ReadEio
            }
        })
    }

    fn sync_fault(&mut self) -> Option<IoFaultKind> {
        self.decide(|p| {
            if p.extra() & 1 == 0 {
                IoFaultKind::SyncFail
            } else {
                IoFaultKind::SyncLie
            }
        })
    }

    fn rename_fault(&mut self) -> bool {
        self.decide(|_| IoFaultKind::RenameFail).is_some()
    }

    fn note_post_cut(&mut self) {
        self.record(IoFaultKind::PostCut);
    }
}

/// The global fault ledger: what the degradation sites accounted, per
/// layer, plus the per-path registry of injected-but-not-yet-detected
/// read flips.
#[derive(Default)]
struct LedgerState {
    accounted: IoFaultCounts,
    by_layer: BTreeMap<&'static str, u64>,
    pending_flips: BTreeMap<PathBuf, u64>,
    flips_detected: u64,
}

static LEDGER: Mutex<Option<LedgerState>> = Mutex::new(None);

fn with_ledger<T>(f: impl FnOnce(&mut LedgerState) -> T) -> T {
    let mut guard = LEDGER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(LedgerState::default))
}

/// Immutable view of the ledger for reports and verdicts.
#[derive(Clone, Default, Debug)]
pub struct LedgerSnapshot {
    /// Errors accounted at degradation sites, per kind.
    pub accounted: IoFaultCounts,
    /// Errors accounted per owning layer (`"journal"`, `"artifact"`,
    /// `"snapshot"`, `"serve-cache"`).
    pub by_layer: Vec<(String, u64)>,
    /// Flipped reads whose corruption a consumer noticed.
    pub flips_detected: u64,
    /// Flipped reads still unnoticed — must be zero for the torture
    /// no-corrupt-accepted verdict.
    pub flips_pending: u64,
}

/// Clears the ledger (torture does this per cycle).
pub fn reset_ledger() {
    with_ledger(|l| *l = LedgerState::default());
}

/// Accounts one storage error handled by `layer`. Only injected errors
/// (recognised by their marker) are counted; real errors return `false`
/// untouched. Call this exactly once per error, at the `Vfs` call site
/// that first observes it — propagated errors are already accounted by
/// the module that made the call.
pub fn account(layer: &'static str, e: &io::Error) -> bool {
    let Some(kind) = classify(e) else { return false };
    with_ledger(|l| {
        l.accounted.bump(kind);
        *l.by_layer.entry(layer).or_insert(0) += 1;
    });
    true
}

/// Registers a read that returned flipped bytes for `path` (called by
/// `FaultyVfs` at injection time).
pub fn record_flip(path: &Path) {
    with_ledger(|l| *l.pending_flips.entry(path.to_path_buf()).or_insert(0) += 1);
}

/// A consumer noticed that bytes read from `path` are corrupt (CRC
/// mismatch, invalid framing, read-back inequality). Drains any pending
/// flips recorded against the path into the detected counter; returns
/// whether the corruption was an injected flip. A no-op (false) when the
/// path has no pending flip — genuine torn-tail corruption is not
/// double-counted.
pub fn confirm_flip(path: &Path) -> bool {
    with_ledger(|l| match l.pending_flips.remove(path) {
        Some(n) => {
            l.flips_detected += n;
            true
        }
        None => false,
    })
}

/// Serialises tests that touch the process-global ledger, install a
/// process-global `Vfs`, or reach the installed one (anything that opens
/// a journal, writes an artifact or a snapshot); `cargo test` runs
/// modules concurrently. Tests that need a scratch directory take it
/// through [`TestDir`].
#[cfg(test)]
pub(crate) fn ledger_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh scratch directory for a test that reaches the process-global
/// `Vfs`: it holds [`ledger_test_guard`] while it lives, so no test can
/// install a faulty seam underneath it, and it is removed on drop.
#[cfg(test)]
pub(crate) struct TestDir {
    path: std::path::PathBuf,
    _guard: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl TestDir {
    /// Takes the guard, then creates an empty `colt-{tag}-{pid}` in the
    /// temp directory.
    pub(crate) fn new(tag: &str) -> Self {
        let guard = ledger_test_guard();
        let path = std::env::temp_dir().join(format!("colt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the test directory is created");
        Self { path, _guard: guard }
    }
}

#[cfg(test)]
impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Current ledger contents.
pub fn ledger() -> LedgerSnapshot {
    with_ledger(|l| LedgerSnapshot {
        accounted: l.accounted,
        by_layer: l.by_layer.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        flips_detected: l.flips_detected,
        flips_pending: l.pending_flips.values().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_os_mem::faults::FaultConfig;

    fn cfg(rate: f64, seed: u64) -> FaultConfig {
        FaultConfig { rate, window: 0, seed }
    }

    #[test]
    fn counts_sum_to_injected() {
        let mut plan = IoFaultPlan::new(cfg(0.5, 77));
        for _ in 0..100 {
            let _ = plan.write_fault();
            let _ = plan.read_fault(32);
            let _ = plan.sync_fault();
            let _ = plan.rename_fault();
        }
        plan.note_post_cut();
        let c = plan.counts();
        assert!(plan.injected() > 0);
        let by_kind: u64 = IoFaultKind::ALL.iter().map(|&k| c.get(k)).sum();
        assert_eq!(c.total(), by_kind);
        assert_eq!(
            errors(&c) + c.get(IoFaultKind::BitFlip) + c.get(IoFaultKind::SyncLie),
            c.total()
        );
    }

    #[test]
    fn empty_reads_never_draw_bit_flips() {
        let mut plan = IoFaultPlan::new(cfg(1.0, 3));
        for _ in 0..40 {
            assert_eq!(plan.read_fault(0), Some(IoFaultKind::ReadEio));
        }
        assert_eq!(plan.counts().get(IoFaultKind::BitFlip), 0);
    }

    #[test]
    fn classify_round_trips_every_kind() {
        for &kind in IoFaultKind::ALL {
            let e = injected_error(kind, Path::new("/x/y"));
            assert_eq!(classify(&e), Some(kind), "{e}");
        }
        let real = io::Error::new(io::ErrorKind::NotFound, "no such file");
        assert_eq!(classify(&real), None);
    }

    #[test]
    fn ledger_accounts_only_injected_errors() {
        let _guard = ledger_test_guard();
        reset_ledger();
        let injected = injected_error(IoFaultKind::Enospc, Path::new("/a"));
        let real = io::Error::new(io::ErrorKind::PermissionDenied, "denied");
        assert!(account("artifact", &injected));
        assert!(!account("artifact", &real));
        let snap = ledger();
        assert_eq!(snap.accounted.get(IoFaultKind::Enospc), 1);
        assert_eq!(errors(&snap.accounted), 1);
        assert_eq!(snap.by_layer, vec![("artifact".to_string(), 1)]);
        reset_ledger();
    }

    #[test]
    fn flip_ledger_drains_on_confirmation() {
        let _guard = ledger_test_guard();
        reset_ledger();
        let p = Path::new("/results/BENCH_x.json");
        record_flip(p);
        assert_eq!(ledger().flips_pending, 1);
        assert!(confirm_flip(p));
        assert!(!confirm_flip(p), "second confirmation is a no-op");
        let snap = ledger();
        assert_eq!(snap.flips_pending, 0);
        assert_eq!(snap.flips_detected, 1);
        reset_ledger();
    }
}
