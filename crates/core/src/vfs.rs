//! The storage seam: a small virtual-filesystem trait the durable
//! writers (`journal`, `artifact`, `snapshot_cache`, the serve
//! `--cache-dir`) route every create/write/fsync/rename/read/dir-fsync
//! through.
//!
//! In production the seam is [`RealVfs`], a zero-cost pass-through to
//! `std::fs`. Under `repro --io-faults` or `repro torture` a
//! [`FaultyVfs`] is [installed](install) process-wide instead: it
//! performs the real operations but consults a seeded
//! [`IoFaultPlan`](crate::io_faults::IoFaultPlan) before each one, and
//! models the page cache — per-file *written* vs *durable* lengths, and
//! renames that stay volatile until their directory is fsynced — so a
//! simulated [`power_cut`](FaultyVfs::power_cut) can roll the disk back
//! to exactly what an honest fsync history guaranteed. Lying fsyncs and
//! dropped renames are the gap between the two, which is what the
//! crash-consistency torture harness exists to probe. See DESIGN.md §16.
//!
//! The seam is installed globally (like the snapshot cache and the
//! artifact tmp counter) because the writers are reached from sweep
//! worker threads and process-global startup paths; threading a handle
//! through every signature would change half the crate for the benefit
//! of one test harness.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use crate::io_faults::{self, injected_error, IoFaultCounts, IoFaultKind, IoFaultPlan, StorageStream};
use colt_os_mem::faults::FaultConfig;

/// An open file produced by [`Vfs::create`] or [`Vfs::open_append`].
pub trait VfsFile: Send {
    /// Writes the whole buffer or fails.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes userspace buffers (no durability implied).
    fn flush(&mut self) -> io::Result<()>;
    /// fdatasync: on Ok, everything written so far is durable — unless
    /// the disk lies, which is the point of [`FaultyVfs`].
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The storage operations the durability substrate depends on.
pub trait Vfs: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file (cleanup; never fault-injected, but refused after
    /// a power cut — which is how tmp litter gets orphaned).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory chain.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// fsyncs a directory, making renames within it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

impl VfsFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Write::flush(self)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// Pass-through to `std::fs` — the production seam.
#[derive(Clone, Copy, Default, Debug)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::create(path)?))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OpenOptions::new().create(true).append(true).open(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_data()
    }
}

static INSTALLED: RwLock<Option<Arc<dyn Vfs>>> = RwLock::new(None);

fn real() -> Arc<dyn Vfs> {
    static REAL: OnceLock<Arc<dyn Vfs>> = OnceLock::new();
    REAL.get_or_init(|| Arc::new(RealVfs)).clone()
}

/// Installs a seam process-wide. Every durable writer picks it up on its
/// next operation.
pub fn install(vfs: Arc<dyn Vfs>) {
    *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = Some(vfs);
}

/// Restores the pass-through [`RealVfs`].
pub fn reset() {
    *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// The currently installed seam ([`RealVfs`] unless something was
/// [`install`]ed).
pub fn active() -> Arc<dyn Vfs> {
    INSTALLED
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
        .unwrap_or_else(real)
}

/// Accounts an injected error against its owning layer and passes the
/// result through. Every durable writer wraps its `Vfs` calls in this at
/// the call site, which is what makes the torture ledger identity exact:
/// errors are accounted exactly once, where first observed, and
/// propagated errors arrive upstream already counted.
pub(crate) fn acct<T>(layer: &'static str, r: io::Result<T>) -> io::Result<T> {
    if let Err(e) = &r {
        let _ = io_faults::account(layer, e);
    }
    r
}

/// Volatile (page-cache) state of one file under [`FaultyVfs`].
#[derive(Clone, Copy, Default, Debug)]
struct FileVol {
    /// Bytes an honest fsync has guaranteed.
    durable: u64,
    /// Bytes written (durable + still volatile).
    written: u64,
}

/// A rename that has happened in the namespace but whose directory has
/// not been fsynced — a power cut undoes it.
#[derive(Debug)]
struct PendingRename {
    from: PathBuf,
    to: PathBuf,
    /// Previous content of `to` if the rename clobbered an existing
    /// file; restored on rollback.
    clobbered: Option<Vec<u8>>,
}

#[derive(Debug)]
struct FaultyState {
    plan: IoFaultPlan,
    /// After this many fsync attempts (file or dir), the disk dies until
    /// [`FaultyVfs::power_cut`] "reboots" it.
    cut_after_syncs: Option<u64>,
    syncs_seen: u64,
    dead: bool,
    vol: BTreeMap<PathBuf, FileVol>,
    pending_renames: Vec<PendingRename>,
    renames_dropped: u64,
}

/// What a simulated power cut rolled back.
#[derive(Clone, Copy, Default, Debug)]
pub struct PowerCutReport {
    /// Renames undone (their directory was never successfully fsynced).
    pub renames_dropped: u64,
    /// Files truncated back to their durable length.
    pub files_truncated: u64,
    /// Volatile bytes discarded by those truncations.
    pub bytes_discarded: u64,
}

/// The fault-injecting seam: real I/O plus a seeded plan and a
/// volatile-state model that a [`power_cut`](Self::power_cut) rolls
/// back.
#[derive(Clone)]
pub struct FaultyVfs {
    state: Arc<Mutex<FaultyState>>,
}

impl FaultyVfs {
    /// A faulty seam drawing from `config`, with no crash point.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            state: Arc::new(Mutex::new(FaultyState {
                plan: IoFaultPlan::new(config),
                cut_after_syncs: None,
                syncs_seen: 0,
                dead: false,
                vol: BTreeMap::new(),
                pending_renames: Vec::new(),
                renames_dropped: 0,
            })),
        }
    }

    /// Arms a crash point: after the `syncs`-th fsync attempt the disk
    /// goes dead (every operation fails, tagged `post-cut`) until
    /// [`power_cut`](Self::power_cut).
    pub fn cut_after_syncs(self, syncs: u64) -> Self {
        self.lock().cut_after_syncs = Some(syncs);
        self
    }

    fn lock(&self) -> MutexGuard<'_, FaultyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-kind injection counters so far.
    pub fn counts(&self) -> IoFaultCounts {
        self.lock().plan.counts()
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.lock().plan.decisions()
    }

    /// Renames rolled back by power cuts so far.
    pub fn renames_dropped(&self) -> u64 {
        self.lock().renames_dropped
    }

    /// Has the armed crash point fired?
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Applies the simulated power cut: rolls every non-durable rename
    /// back (restoring clobbered destinations), truncates every file to
    /// its durable length, and revives the disk — the "reboot". Volatile
    /// bookkeeping is cleared; fault counters survive for the ledger.
    pub fn power_cut(&self) -> PowerCutReport {
        let mut st = self.lock();
        let mut report = PowerCutReport::default();
        let pending: Vec<PendingRename> = st.pending_renames.drain(..).rev().collect();
        for pr in pending {
            if pr.to.exists() {
                let _ = std::fs::rename(&pr.to, &pr.from);
                if let Some(vol) = st.vol.remove(&pr.to) {
                    st.vol.insert(pr.from.clone(), vol);
                }
            }
            if let Some(old) = pr.clobbered {
                let _ = std::fs::write(&pr.to, old);
                st.vol.remove(&pr.to);
            }
            st.renames_dropped += 1;
            report.renames_dropped += 1;
        }
        for (path, vol) in std::mem::take(&mut st.vol) {
            if vol.written > vol.durable {
                if let Ok(f) = OpenOptions::new().write(true).open(&path) {
                    if f.set_len(vol.durable).is_ok() {
                        report.files_truncated += 1;
                        report.bytes_discarded += vol.written - vol.durable;
                    }
                }
            }
        }
        st.dead = false;
        st.cut_after_syncs = None;
        report
    }

    /// One fsync attempt (file or dir): advances the crash-point clock
    /// and returns the plan's verdict for it.
    fn sync_verdict(st: &mut FaultyState) -> Option<IoFaultKind> {
        let verdict = st.plan.sync_fault();
        st.syncs_seen += 1;
        if st.cut_after_syncs == Some(st.syncs_seen) {
            st.dead = true;
        }
        verdict
    }

    fn dead_error(st: &mut FaultyState, path: &Path) -> io::Error {
        st.plan.note_post_cut();
        injected_error(IoFaultKind::PostCut, path)
    }
}

struct FaultyFile {
    path: PathBuf,
    file: File,
    state: Arc<Mutex<FaultyState>>,
}

impl VfsFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        // Lock through the field, not a &self helper, so the borrow
        // stays disjoint from `self.file`.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, &self.path));
        }
        match st.plan.write_fault() {
            Some(IoFaultKind::Enospc) => {
                Err(injected_error(IoFaultKind::Enospc, &self.path))
            }
            Some(kind) => {
                // Torn write: a strict prefix lands, then the error.
                let keep = if buf.len() > 1 {
                    (st.plan.extra() as usize) % buf.len()
                } else {
                    0
                };
                if Write::write_all(&mut self.file, &buf[..keep]).is_ok() {
                    st.vol.entry(self.path.clone()).or_default().written += keep as u64;
                }
                Err(injected_error(kind, &self.path))
            }
            None => {
                Write::write_all(&mut self.file, buf)?;
                st.vol.entry(self.path.clone()).or_default().written += buf.len() as u64;
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Write::flush(&mut self.file)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, &self.path));
        }
        match FaultyVfs::sync_verdict(&mut st) {
            Some(IoFaultKind::SyncLie) => Ok(()), // durable length unchanged
            Some(kind) => Err(injected_error(kind, &self.path)),
            None => {
                self.file.sync_data()?;
                let vol = st.vol.entry(self.path.clone()).or_default();
                vol.durable = vol.written;
                Ok(())
            }
        }
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, path));
        }
        let file = File::create(path)?;
        st.vol.insert(path.to_path_buf(), FileVol::default());
        Ok(Box::new(FaultyFile {
            path: path.to_path_buf(),
            file,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, path));
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        // Pre-existing bytes are assumed durable: the journal fsyncs
        // every record before acknowledging it.
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        st.vol.insert(path.to_path_buf(), FileVol { durable: len, written: len });
        Ok(Box::new(FaultyFile {
            path: path.to_path_buf(),
            file,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, path));
        }
        // Real failures (e.g. NotFound) propagate untagged without
        // consuming a draw: absence is not a fault.
        let mut bytes = std::fs::read(path)?;
        match st.plan.read_fault(bytes.len()) {
            Some(IoFaultKind::BitFlip) => {
                let bit = (st.plan.extra() as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                io_faults::record_flip(path);
                Ok(bytes)
            }
            Some(kind) => Err(injected_error(kind, path)),
            None => Ok(bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, to));
        }
        if st.plan.rename_fault() {
            return Err(injected_error(IoFaultKind::RenameFail, to));
        }
        let clobbered = if to.exists() { std::fs::read(to).ok() } else { None };
        std::fs::rename(from, to)?;
        if let Some(vol) = st.vol.remove(from) {
            st.vol.insert(to.to_path_buf(), vol);
        }
        st.pending_renames.push(PendingRename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            clobbered,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, path));
        }
        std::fs::remove_file(path)?;
        st.vol.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, path));
        }
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.dead {
            return Err(FaultyVfs::dead_error(&mut st, dir));
        }
        match FaultyVfs::sync_verdict(&mut st) {
            Some(IoFaultKind::SyncLie) => Ok(()), // renames stay volatile
            Some(kind) => Err(injected_error(kind, dir)),
            None => {
                File::open(dir)?.sync_data()?;
                st.pending_renames.retain(|pr| pr.to.parent() != Some(dir));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(case: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("colt-vfs-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quiet() -> FaultConfig {
        FaultConfig { rate: 0.0, window: 0, seed: 1 }
    }

    fn write_through(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = vfs.create(path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    #[test]
    fn real_vfs_round_trips() {
        let dir = scratch("real");
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        let vfs = RealVfs;
        write_through(&vfs, &a, b"hello").unwrap();
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&b).unwrap(), b"hello");
        vfs.remove_file(&b).unwrap();
        assert!(vfs.read(&b).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiet_faulty_vfs_is_transparent() {
        let dir = scratch("quiet");
        let vfs = FaultyVfs::new(quiet());
        let p = dir.join("x.txt");
        write_through(&vfs, &p, b"payload").unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"payload");
        assert_eq!(vfs.counts().total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_rate_write_faults_are_tagged_and_counted() {
        let dir = scratch("wfault");
        let vfs = FaultyVfs::new(FaultConfig { rate: 1.0, window: 0, seed: 3 });
        let mut enospc = 0;
        let mut short = 0;
        for i in 0..20 {
            let p = dir.join(format!("f{i}"));
            let mut f = vfs.create(&p).unwrap();
            let e = f.write_all(b"0123456789abcdef").unwrap_err();
            match io_faults::classify(&e).unwrap() {
                IoFaultKind::Enospc => {
                    enospc += 1;
                    assert_eq!(std::fs::read(&p).unwrap(), b"", "ENOSPC lands nothing");
                }
                IoFaultKind::ShortWrite => {
                    short += 1;
                    assert!(
                        std::fs::read(&p).unwrap().len() < 16,
                        "torn write lands a strict prefix"
                    );
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
        let c = vfs.counts();
        assert_eq!(
            (c.get(IoFaultKind::Enospc), c.get(IoFaultKind::ShortWrite)),
            (enospc, short)
        );
        assert_eq!(c.total(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_fsync_loses_bytes_at_power_cut() {
        let dir = scratch("lie");
        let p = dir.join("lied.bin");
        // Find a seed whose first draw is a lying fsync; the write below
        // bypasses the plan, so the sync is the plan's first decision.
        let seed = (0..64)
            .find(|&s| {
                IoFaultPlan::new(FaultConfig { rate: 1.0, window: 0, seed: s })
                    .sync_fault()
                    == Some(IoFaultKind::SyncLie)
            })
            .expect("some seed lies first");
        let vfs = FaultyVfs::new(FaultConfig { rate: 1.0, window: 0, seed });
        {
            std::fs::write(&p, b"volatile").unwrap();
            vfs.lock().vol.insert(p.clone(), FileVol { durable: 0, written: 8 });
            let mut liar: Box<dyn VfsFile> = Box::new(FaultyFile {
                path: p.clone(),
                file: OpenOptions::new().append(true).open(&p).unwrap(),
                state: Arc::clone(&vfs.state),
            });
            assert!(liar.sync_data().is_ok(), "the fsync lies: reports success");
        }
        assert_eq!(vfs.counts().get(IoFaultKind::SyncLie), 1);
        let report = vfs.power_cut();
        assert_eq!(report.files_truncated, 1);
        assert_eq!(report.bytes_discarded, 8);
        assert_eq!(std::fs::read(&p).unwrap(), b"", "lied-about bytes are gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_rename_is_dropped_at_power_cut_and_clobbered_dest_restored() {
        let dir = scratch("rename");
        let tmp = dir.join("artifact.json.tmp-1-1");
        let dest = dir.join("artifact.json");
        std::fs::write(&dest, b"old durable artifact").unwrap();
        let vfs = FaultyVfs::new(quiet());
        write_through(&vfs, &tmp, b"new artifact").unwrap();
        vfs.rename(&tmp, &dest).unwrap();
        // No sync_dir: the rename is in the namespace but not durable.
        assert_eq!(std::fs::read(&dest).unwrap(), b"new artifact");
        let report = vfs.power_cut();
        assert_eq!(report.renames_dropped, 1);
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            b"old durable artifact",
            "power cut reverts the unsynced rename"
        );
        assert_eq!(
            std::fs::read(&tmp).unwrap(),
            b"new artifact",
            "the tmp file reappears as crash litter"
        );
        assert_eq!(vfs.renames_dropped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synced_rename_survives_power_cut() {
        let dir = scratch("rename-durable");
        let tmp = dir.join("a.tmp-1-2");
        let dest = dir.join("a.json");
        let vfs = FaultyVfs::new(quiet());
        write_through(&vfs, &tmp, b"durable").unwrap();
        vfs.rename(&tmp, &dest).unwrap();
        vfs.sync_dir(&dir).unwrap();
        let report = vfs.power_cut();
        assert_eq!(report.renames_dropped, 0);
        assert_eq!(std::fs::read(&dest).unwrap(), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_dies_after_the_armed_sync_and_reboots_at_power_cut() {
        let dir = scratch("cut");
        let vfs = FaultyVfs::new(quiet()).cut_after_syncs(1);
        let p = dir.join("j.jsonl");
        let mut f = vfs.open_append(&p).unwrap();
        f.write_all(b"record 1\n").unwrap();
        f.sync_data().unwrap(); // the 1st sync: clock hits the cut
        assert!(vfs.is_dead());
        let e = f.write_all(b"record 2\n").unwrap_err();
        assert_eq!(io_faults::classify(&e), Some(IoFaultKind::PostCut));
        let e = vfs.read(&p).unwrap_err();
        assert_eq!(io_faults::classify(&e), Some(IoFaultKind::PostCut));
        assert_eq!(vfs.counts().get(IoFaultKind::PostCut), 2);
        vfs.power_cut();
        assert!(!vfs.is_dead());
        assert_eq!(vfs.read(&p).unwrap(), b"record 1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_recorded_until_confirmed() {
        let _guard = io_faults::ledger_test_guard();
        io_faults::reset_ledger();
        let dir = scratch("flip");
        let p = dir.join("payload.bin");
        std::fs::write(&p, vec![0u8; 256]).unwrap();
        // Walk seeds until a read comes back flipped.
        let mut flipped = None;
        for seed in 0..64 {
            let vfs = FaultyVfs::new(FaultConfig { rate: 1.0, window: 0, seed });
            if let Ok(bytes) = vfs.read(&p) {
                flipped = Some((vfs, bytes));
                break;
            }
        }
        let (vfs, bytes) = flipped.expect("some seed flips first");
        assert_eq!(vfs.counts().get(IoFaultKind::BitFlip), 1);
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(std::fs::read(&p).unwrap(), vec![0u8; 256], "disk untouched");
        assert_eq!(io_faults::ledger().flips_pending, 1);
        assert!(io_faults::confirm_flip(&p));
        assert_eq!(io_faults::ledger().flips_pending, 0);
        io_faults::reset_ledger();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_swaps_the_active_seam() {
        let _guard = io_faults::ledger_test_guard();
        let faulty = Arc::new(FaultyVfs::new(quiet()));
        install(faulty.clone());
        let dir = scratch("install");
        let p = dir.join("via-seam.txt");
        write_through(active().as_ref(), &p, b"seamed").unwrap();
        reset();
        assert_eq!(active().read(&p).unwrap(), b"seamed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
