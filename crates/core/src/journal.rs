//! Durable cell journal: crash-safe progress for long sweeps.
//!
//! Every sweep run through the journaled runner entry points appends
//! one self-describing record per *finished* cell to
//! `results/journal/<experiment>.jsonl`, flushed and fsynced per record
//! so completed work survives `SIGKILL`, OOM, or a machine reboot.
//! `repro <experiment> --resume` replays the journal, skips completed
//! cells, and re-runs only the missing or failed ones; a fresh run and
//! a kill-at-any-point-then-resume run produce byte-identical result
//! files because the replayed payloads are lossless.
//!
//! ## Record format (one sealed JSON object per line)
//!
//! ```text
//! {"schema": "colt-journal/v2", "fp": "9f3a01bc", "seq": 4,
//!  "label": "pressure/Mcf/Baseline/r0.000", "outcome": "ok", "attempts": 1,
//!  "reason": "", "refs": 11000, "prep": "3fb99999a0000000",
//!  "sim": "3f847ae140000000", "payload": "sim1|11000|...", "crc": "d1c529a7"}
//! ```
//!
//! Journal lines are *sealed records* ([`seal`] / [`open`]), the framing
//! the serve cache shares: a one-line JSON object that names its format
//! in `schema` and closes with a `crc` member — CRC32 (IEEE) over every
//! preceding byte, compared as strict lowercase hex. A truncated line,
//! flipped bit, or garbage bytes fail the checksum and the record is
//! quarantined, never trusted; a record of another schema (an older
//! journal included) is quarantined unread.
//!
//! * `fp` — fingerprint of the producing invocation (experiment name +
//!   every flag that changes results: accesses, seed, benchmarks,
//!   cores, faults, policy). A record whose fingerprint does not match
//!   the current invocation is ignored with a loud note — mismatched
//!   flags are never silently reused.
//! * `seq` — append sequence number, for auditing.
//! * `outcome` — `ok` or `failed` (older builds, which retried cells,
//!   also wrote `quarantined`); only `ok` records are replayed, the
//!   others are re-run on resume.
//! * `attempts` — always 1: cells are not retried. The member stays so
//!   journals remain readable across versions in both directions.
//! * `prep`/`sim` — the cell's wall-clock seconds as IEEE-754 bit
//!   patterns (hex), so replayed throughput metrics are bit-exact.
//! * `payload` — the cell's result, encoded by [`JournalPayload`]
//!   (lossless: u64s as decimal, f64s as bit patterns).
//!
//! Unusable lines found at open are moved to `<journal>.corrupt-<n>`
//! (first free `n`) and the journal is rewritten with only the valid
//! records, so nothing is silently lost and nothing corrupt lingers.
//!
//! `COLT_CRASH_AFTER_CELLS=<k>` aborts the process (no destructors, no
//! flushing — `SIGKILL`-equivalent) immediately after the `k`-th record
//! of the run is fsynced: the deterministic mid-sweep kill the
//! crash-recovery smoke stage of `scripts/verify.sh` is built on.

use crate::serve::json::{self, obj, Json};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal record schema. Bump when the record fields or any payload
/// encoding changes shape; old records are then quarantined instead of
/// misread.
pub const RECORD_SCHEMA: &str = "colt-journal/v2";

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven — the build is offline, so no
// crates.io checksum dependency.
// ---------------------------------------------------------------------

/// Bytes folded per step of [`crc32`]'s main loop.
const CRC_SLICE: usize = 16;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC register after byte `b` followed
/// by `k` zero bytes, so sixteen lookups fold sixteen input bytes at
/// once.
const fn crc32_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc32_tables();

/// CRC32 (IEEE) of `bytes`, sixteen bytes per step (slicing-by-16),
/// then the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(CRC_SLICE);
    for chunk in &mut chunks {
        let b: &[u8; CRC_SLICE] = chunk.try_into().expect("chunks_exact yields full chunks");
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Fingerprint of a canonical configuration string: 8 hex digits.
pub fn fingerprint_of(canonical: &str) -> String {
    format!("{:08x}", crc32(canonical.as_bytes()))
}

// ---------------------------------------------------------------------
// Sealed records: the framing journal lines and serve-cache entries
// share.
// ---------------------------------------------------------------------

/// The member that closes every sealed record.
const CRC_MEMBER: &str = ", \"crc\": \"";

/// Seals `record` — a JSON object whose first member is its `schema` —
/// as one line closed by a `crc` member: CRC32 over every preceding
/// byte, as eight lowercase hex digits.
pub fn seal(record: &Json) -> String {
    debug_assert!(record.get("schema").is_some(), "a sealed record names its schema");
    let mut line = record.line();
    line.pop(); // the closing brace; the crc member closes the record
    let crc = crc32(line.as_bytes());
    let _ = write!(line, "{CRC_MEMBER}{crc:08x}\"}}");
    line
}

/// What [`open`] found in one sealed record.
#[derive(Clone, Debug, PartialEq)]
pub enum Opened {
    /// An intact record of the expected schema.
    Record(Json),
    /// An intact record of another schema — skip it, never interpret
    /// it. Unsealed JSON (an older format) lands here too, under its
    /// `schema` or `"none"`.
    OtherSchema(String),
    /// Truncated, garbled, or failing its checksum.
    Corrupt(String),
}

/// Opens one sealed record of `schema`. The checksum is checked before
/// anything is parsed, so a flip anywhere — the schema and the crc
/// member included — reads as corrupt, never as another schema.
pub fn open(text: &str, schema: &str) -> Opened {
    let Some(at) = text.rfind(CRC_MEMBER) else {
        // Without a seal only a record of another format is healthy; one
        // claiming this schema has lost its crc member to damage.
        return match json::parse(text) {
            Ok(doc) => match doc.get("schema").and_then(Json::as_str).unwrap_or("none") {
                found if found == schema => {
                    Opened::Corrupt("record without its crc member".to_string())
                }
                other => Opened::OtherSchema(other.to_string()),
            },
            Err(e) => Opened::Corrupt(format!("invalid JSON: {e}")),
        };
    };
    // Exact string comparison, not a hex parse: `from_str_radix` is
    // case-insensitive, so a bit flip turning `a` into `A` inside the
    // crc member — the one region the checksum cannot cover — would
    // otherwise verify.
    let stored = &text[at + CRC_MEMBER.len()..];
    let computed = format!("{:08x}\"}}", crc32(text[..at].as_bytes()));
    if stored != computed {
        return Opened::Corrupt(format!(
            "checksum mismatch (stored {stored}, computed {computed})"
        ));
    }
    match json::parse(text) {
        Ok(doc) => match doc.get("schema").and_then(Json::as_str) {
            Some(found) if found == schema => Opened::Record(doc),
            other => Opened::OtherSchema(other.unwrap_or("none").to_string()),
        },
        Err(e) => Opened::Corrupt(format!("invalid JSON: {e}")),
    }
}

// ---------------------------------------------------------------------
// Payload encoding: lossless, versioned through RECORD_SCHEMA.
// ---------------------------------------------------------------------

/// A value that can ride in a journal record's `payload` field and be
/// reconstructed bit-exactly on resume. Implemented by every result
/// type the experiment drivers sweep over.
pub trait JournalPayload: Sized {
    /// Serializes the value. Must be lossless: a resumed sweep renders
    /// byte-identical result files from decoded payloads.
    fn encode(&self) -> String;
    /// Parses a payload produced by [`JournalPayload::encode`]. `None`
    /// on any mismatch — the cell is then re-run, never guessed at.
    fn decode(s: &str) -> Option<Self>;
}

/// Builder for `|`-separated payload fields, tag-prefixed so a payload
/// of the wrong type never decodes by accident.
pub struct Enc(String);

impl Enc {
    /// Starts a payload with a type tag (e.g. `"sim1"`).
    pub fn new(tag: &str) -> Self {
        Enc(tag.to_string())
    }

    /// Appends a u64 field.
    #[must_use]
    pub fn u(mut self, v: u64) -> Self {
        self.0.push('|');
        self.0.push_str(&v.to_string());
        self
    }

    /// Appends an f64 field as its IEEE-754 bit pattern (lossless).
    #[must_use]
    pub fn f(mut self, v: f64) -> Self {
        self.0.push('|');
        self.0.push_str(&format!("{:016x}", v.to_bits()));
        self
    }

    /// Appends a string field, escaping the separators.
    #[must_use]
    pub fn s(mut self, v: &str) -> Self {
        self.0.push('|');
        for ch in v.chars() {
            match ch {
                '\\' => self.0.push_str("\\\\"),
                '|' => self.0.push_str("\\b"),
                ';' => self.0.push_str("\\c"),
                c => self.0.push(c),
            }
        }
        self
    }

    /// Finishes the payload.
    pub fn done(self) -> String {
        self.0
    }
}

/// Reader over an [`Enc`]-built payload.
pub struct Dec<'a> {
    parts: std::str::Split<'a, char>,
}

impl<'a> Dec<'a> {
    /// Opens a payload, checking the type tag.
    pub fn new(s: &'a str, tag: &str) -> Option<Self> {
        let mut parts = s.split('|');
        if parts.next()? != tag {
            return None;
        }
        Some(Dec { parts })
    }

    /// Reads the next u64 field.
    pub fn u(&mut self) -> Option<u64> {
        self.parts.next()?.parse().ok()
    }

    /// Reads the next f64 field (bit pattern).
    pub fn f(&mut self) -> Option<f64> {
        Some(f64::from_bits(u64::from_str_radix(self.parts.next()?, 16).ok()?))
    }

    /// Reads the next string field, unescaping.
    pub fn s(&mut self) -> Option<String> {
        let raw = self.parts.next()?;
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(ch) = chars.next() {
            if ch == '\\' {
                match chars.next()? {
                    '\\' => out.push('\\'),
                    'b' => out.push('|'),
                    'c' => out.push(';'),
                    _ => return None,
                }
            } else {
                out.push(ch);
            }
        }
        Some(out)
    }

    /// True when every field has been consumed (decode sanity check).
    pub fn exhausted(mut self) -> bool {
        self.parts.next().is_none()
    }
}

impl JournalPayload for u64 {
    fn encode(&self) -> String {
        Enc::new("u1").u(*self).done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = Dec::new(s, "u1")?;
        let v = d.u()?;
        d.exhausted().then_some(v)
    }
}

impl JournalPayload for f64 {
    fn encode(&self) -> String {
        Enc::new("f1").f(*self).done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = Dec::new(s, "f1")?;
        let v = d.f()?;
        d.exhausted().then_some(v)
    }
}

// ---------------------------------------------------------------------
// Payload impls for the simulation result types every driver sweeps
// over. Encodings are flat field lists — bump RECORD_SCHEMA (or the
// type tag) whenever a struct gains or loses a counter.
// ---------------------------------------------------------------------

pub(crate) fn enc_sim(mut e: Enc, r: &crate::sim::SimResult) -> Enc {
    let t = &r.tlb;
    e = e
        .u(t.accesses)
        .u(t.l1_hits)
        .u(t.l1_misses)
        .u(t.l2_hits)
        .u(t.l2_misses)
        .u(t.fills)
        .u(t.superpage_fills)
        .u(t.pb_hits);
    for bucket in t.coalesce_hist {
        e = e.u(bucket);
    }
    e.u(t.coalesce_overflow)
        .u(t.asid_flushes)
        .u(t.asid_entries_flushed)
        .u(r.walker.walks)
        .u(r.walker.total_latency)
        .u(r.walker.faults)
        .u(r.instructions)
        .u(r.walk_cycles)
        .u(r.data_stall_cycles)
        .u(r.l2_tlb_cycles)
        .u(r.oracle_mismatches)
}

pub(crate) fn dec_sim(d: &mut Dec<'_>) -> Option<crate::sim::SimResult> {
    let tlb = colt_tlb::stats::HierarchyStats {
        accesses: d.u()?,
        l1_hits: d.u()?,
        l1_misses: d.u()?,
        l2_hits: d.u()?,
        l2_misses: d.u()?,
        fills: d.u()?,
        superpage_fills: d.u()?,
        pb_hits: d.u()?,
        coalesce_hist: {
            let mut hist = [0u64; 8];
            for bucket in &mut hist {
                *bucket = d.u()?;
            }
            hist
        },
        coalesce_overflow: d.u()?,
        asid_flushes: d.u()?,
        asid_entries_flushed: d.u()?,
    };
    let walker = colt_memsim::walker::WalkerStats {
        walks: d.u()?,
        total_latency: d.u()?,
        faults: d.u()?,
    };
    Some(crate::sim::SimResult {
        tlb,
        walker,
        instructions: d.u()?,
        walk_cycles: d.u()?,
        data_stall_cycles: d.u()?,
        l2_tlb_cycles: d.u()?,
        oracle_mismatches: d.u()?,
    })
}

pub(crate) fn enc_kernel(e: Enc, k: &colt_os_mem::kernel::KernelStats) -> Enc {
    e.u(k.allocations)
        .u(k.pages_requested)
        .u(k.pages_populated)
        .u(k.physical_runs)
        .u(k.thp_allocs)
        .u(k.thp_fallbacks)
        .u(k.thp_splits)
        .u(k.compaction_runs)
        .u(k.pages_migrated)
        .u(k.demand_faults)
        .u(k.pages_reclaimed)
        .u(k.oom_kills)
        .u(k.compact_deferred)
        .u(k.thp_deferred_retries)
        .u(k.faults_injected)
        .u(k.policy_decisions)
        .u(k.policy_huge_grants)
        .u(k.policy_huge_denies)
        .u(k.policy_collapses_triggered)
        .u(k.policy_compactions_requested)
}

pub(crate) fn dec_kernel(d: &mut Dec<'_>) -> Option<colt_os_mem::kernel::KernelStats> {
    Some(colt_os_mem::kernel::KernelStats {
        allocations: d.u()?,
        pages_requested: d.u()?,
        pages_populated: d.u()?,
        physical_runs: d.u()?,
        thp_allocs: d.u()?,
        thp_fallbacks: d.u()?,
        thp_splits: d.u()?,
        compaction_runs: d.u()?,
        pages_migrated: d.u()?,
        demand_faults: d.u()?,
        pages_reclaimed: d.u()?,
        oom_kills: d.u()?,
        compact_deferred: d.u()?,
        thp_deferred_retries: d.u()?,
        faults_injected: d.u()?,
        policy_decisions: d.u()?,
        policy_huge_grants: d.u()?,
        policy_huge_denies: d.u()?,
        policy_collapses_triggered: d.u()?,
        policy_compactions_requested: d.u()?,
    })
}

impl JournalPayload for crate::sim::SimResult {
    fn encode(&self) -> String {
        enc_sim(Enc::new("sim1"), self).done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = Dec::new(s, "sim1")?;
        let r = dec_sim(&mut d)?;
        d.exhausted().then_some(r)
    }
}

impl JournalPayload for (crate::sim::SimResult, colt_os_mem::kernel::KernelStats) {
    fn encode(&self) -> String {
        enc_kernel(enc_sim(Enc::new("simker2"), &self.0), &self.1).done()
    }
    fn decode(s: &str) -> Option<Self> {
        // "simker2": KernelStats grew the five policy counters.
        let mut d = Dec::new(s, "simker2")?;
        let sim = dec_sim(&mut d)?;
        let kernel = dec_kernel(&mut d)?;
        d.exhausted().then_some((sim, kernel))
    }
}

// ---------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------

/// One parsed journal record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Fingerprint of the producing invocation.
    pub fp: String,
    /// Append sequence number.
    pub seq: u64,
    /// Cell label — the journal key within one experiment.
    pub label: String,
    /// `"ok"` or `"failed"` (`"quarantined"` from older builds).
    pub outcome: String,
    /// Attempts the cell consumed; the runner writes 1.
    pub attempts: u64,
    /// Failure reason ("" for `ok`).
    pub reason: String,
    /// Memory references the cell simulated (throughput metric).
    pub refs: u64,
    /// Seconds spent preparing the shared workload.
    pub prep_seconds: f64,
    /// Seconds the job ran.
    pub sim_seconds: f64,
    /// Encoded result ("" unless `ok`).
    pub payload: String,
}

/// Serializes one record as a single sealed JSONL line (no trailing
/// newline).
pub fn encode_record(r: &Record) -> String {
    seal(&obj! {
        "schema" => RECORD_SCHEMA,
        "fp" => &r.fp,
        "seq" => r.seq,
        "label" => &r.label,
        "outcome" => &r.outcome,
        "attempts" => r.attempts,
        "reason" => &r.reason,
        "refs" => r.refs,
        "prep" => format!("{:016x}", r.prep_seconds.to_bits()),
        "sim" => format!("{:016x}", r.sim_seconds.to_bits()),
        "payload" => &r.payload,
    })
}

/// Why a journal line could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineError {
    /// Structurally broken, truncated, or checksum mismatch.
    Corrupt(String),
    /// Intact, but a record schema this build does not speak.
    Schema(String),
}

/// Parses one journal line, verifying structure and checksum.
pub fn parse_record(line: &str) -> Result<Record, LineError> {
    let doc = match open(line.trim_end_matches('\r'), RECORD_SCHEMA) {
        Opened::Record(doc) => doc,
        Opened::OtherSchema(schema) => return Err(LineError::Schema(schema)),
        Opened::Corrupt(why) => return Err(LineError::Corrupt(why)),
    };
    let missing = |key: &str| LineError::Corrupt(format!("missing field '{key}'"));
    let text = |key: &str| {
        doc.get(key).and_then(Json::as_str).map(str::to_string).ok_or_else(|| missing(key))
    };
    let num = |key: &str| doc.get(key).and_then(Json::as_u64).ok_or_else(|| missing(key));
    let bits = |key: &str| {
        let hex = text(key)?;
        u64::from_str_radix(&hex, 16).map(f64::from_bits).map_err(|_| missing(key))
    };
    Ok(Record {
        fp: text("fp")?,
        seq: num("seq")?,
        label: text("label")?,
        outcome: text("outcome")?,
        attempts: num("attempts")?,
        reason: text("reason")?,
        refs: num("refs")?,
        prep_seconds: bits("prep")?,
        sim_seconds: bits("sim")?,
        payload: text("payload")?,
    })
}

// ---------------------------------------------------------------------
// The journal itself.
// ---------------------------------------------------------------------

/// A completed cell replayed from the journal.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// Encoded result payload.
    pub payload: String,
    /// Memory references the original run simulated.
    pub refs: u64,
    /// Original preparation seconds (bit-exact).
    pub prep_seconds: f64,
    /// Original job seconds (bit-exact).
    pub sim_seconds: f64,
}

/// What `Journal::open` found in an existing journal.
#[derive(Clone, Debug, Default)]
pub struct OpenReport {
    /// `ok` records with a matching fingerprint — replayable.
    pub replayed: usize,
    /// Valid records ignored because their fingerprint differs from
    /// this invocation's flags.
    pub fingerprint_mismatches: usize,
    /// `failed`/`quarantined` records (their cells re-run on resume).
    pub failed_records: usize,
    /// Lines that failed structure or checksum validation.
    pub corrupt_lines: usize,
    /// Intact lines of another record schema (an older journal).
    pub schema_skipped: usize,
    /// Where the unusable lines were quarantined (if any were).
    pub quarantined_to: Option<PathBuf>,
}

struct Inner {
    file: Box<dyn crate::vfs::VfsFile>,
    seq: u64,
    appended: u64,
    seen: HashSet<String>,
    /// Cells the sweeps run against this journal replayed from it, and
    /// cells they ran.
    replayed_cells: u64,
    ran_cells: u64,
}

/// Append-only, fsync-per-record journal for one experiment's sweep.
pub struct Journal {
    path: PathBuf,
    fingerprint: String,
    replayed: HashMap<String, Replayed>,
    report: OpenReport,
    crash_after: Option<u64>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("fingerprint", &self.fingerprint)
            .field("replayed", &self.replayed.len())
            .finish()
    }
}

fn parse_crash_after() -> Option<u64> {
    let raw = std::env::var("COLT_CRASH_AFTER_CELLS").ok()?;
    match raw.parse::<u64>() {
        Ok(0) | Err(_) => {
            eprintln!(
                "warning: COLT_CRASH_AFTER_CELLS='{raw}' is not a positive integer; \
                 crash injection disabled"
            );
            None
        }
        Ok(n) => Some(n),
    }
}

impl Journal {
    /// Opens (resume) or starts fresh (non-resume) the journal for
    /// `experiment` under `dir`, validating every existing line.
    ///
    /// On resume, corrupt/version-bumped lines are quarantined to
    /// `<journal>.corrupt-<n>`, the journal is rewritten with only the
    /// valid records, and `ok` records matching `fingerprint` become
    /// replayable. On a fresh open an existing journal is truncated
    /// (after whole-file quarantine if it contained corruption, so
    /// evidence is never clobbered).
    pub fn open(
        dir: &Path,
        experiment: &str,
        fingerprint: String,
        resume: bool,
    ) -> std::io::Result<Journal> {
        let path = dir.join(format!("{experiment}.jsonl"));
        let mut report = OpenReport::default();
        let mut replayed = HashMap::new();
        let mut kept_lines: Vec<String> = Vec::new();
        let mut bad_lines: Vec<String> = Vec::new();

        let fs = crate::vfs::active();
        crate::vfs::acct("journal", fs.create_dir_all(dir))?;
        if path.exists() {
            // Lossy decoding on purpose: a bit flip that lands in a
            // UTF-8 continuation byte must surface as a corrupt line
            // (the CRC catches the replacement character), not abort
            // the whole open.
            let raw = String::from_utf8_lossy(&crate::vfs::acct(
                "journal",
                fs.read(&path),
            )?)
            .into_owned();
            for line in raw.lines().filter(|l| !l.trim().is_empty()) {
                match parse_record(line) {
                    Ok(rec) => {
                        if !resume {
                            continue;
                        }
                        kept_lines.push(line.to_string());
                        if rec.fp != fingerprint {
                            report.fingerprint_mismatches += 1;
                            if report.fingerprint_mismatches <= 3 {
                                eprintln!(
                                    "note: --resume ignoring journal record for \
                                     '{}': fingerprint {} does not match this \
                                     invocation ({}) — flags differ, cell will \
                                     re-run",
                                    rec.label, rec.fp, fingerprint
                                );
                            }
                        } else if rec.outcome == "ok" {
                            report.replayed += 1;
                            replayed.insert(
                                rec.label.clone(),
                                Replayed {
                                    payload: rec.payload,
                                    refs: rec.refs,
                                    prep_seconds: rec.prep_seconds,
                                    sim_seconds: rec.sim_seconds,
                                },
                            );
                        } else {
                            report.failed_records += 1;
                            eprintln!(
                                "note: --resume re-running cell '{}' (journaled \
                                 outcome: {}, attempts {}, reason: {})",
                                rec.label, rec.outcome, rec.attempts, rec.reason
                            );
                        }
                    }
                    Err(LineError::Corrupt(why)) => {
                        report.corrupt_lines += 1;
                        bad_lines.push(line.to_string());
                        eprintln!(
                            "warning: corrupt journal line in {} ({why}); \
                             quarantining, cell will re-run",
                            path.display()
                        );
                    }
                    Err(LineError::Schema(schema)) => {
                        report.schema_skipped += 1;
                        bad_lines.push(line.to_string());
                        eprintln!(
                            "warning: journal record schema '{schema}' in {} is not \
                             this build's ({RECORD_SCHEMA}); quarantining, cell will \
                             re-run",
                            path.display()
                        );
                    }
                }
            }
            if report.fingerprint_mismatches > 3 {
                eprintln!(
                    "note: --resume ignored {} fingerprint-mismatched record(s) \
                     in total",
                    report.fingerprint_mismatches
                );
            }
            if !bad_lines.is_empty() {
                // If this open's read came back bit-flipped, the CRCs
                // above just detected it.
                let _ = crate::io_faults::confirm_flip(&path);
                let qpath = crate::artifact::quarantine_path(&path);
                {
                    let mut qf = crate::vfs::acct("journal", fs.create(&qpath))?;
                    let mut buf = String::new();
                    for line in &bad_lines {
                        buf.push_str(line);
                        buf.push('\n');
                    }
                    crate::vfs::acct("journal", qf.write_all(buf.as_bytes()))?;
                    crate::vfs::acct("journal", qf.sync_data())?;
                }
                eprintln!(
                    "warning: {} unusable journal line(s) quarantined to {}",
                    bad_lines.len(),
                    qpath.display()
                );
                report.quarantined_to = Some(qpath);
            }
        }

        // Rewrite the journal to exactly the kept records (empty on a
        // fresh run), via temp file + rename so a crash here cannot
        // produce a half-written journal. The tmp name follows the
        // `*.tmp-*` convention so a crash between create and rename is
        // caught by the startup litter sweep.
        let tmp = crate::artifact::unique_tmp(&path);
        let rewritten = (|| {
            let mut tf = crate::vfs::acct("journal", fs.create(&tmp))?;
            let mut buf = String::new();
            for line in &kept_lines {
                buf.push_str(line);
                buf.push('\n');
            }
            crate::vfs::acct("journal", tf.write_all(buf.as_bytes()))?;
            crate::vfs::acct("journal", tf.sync_data())?;
            crate::vfs::acct("journal", fs.rename(&tmp, &path))
        })();
        if let Err(e) = rewritten {
            if let Err(re) = fs.remove_file(&tmp) {
                let _ = crate::io_faults::account("journal", &re);
            }
            return Err(e);
        }
        if let Err(e) = fs.sync_dir(dir) {
            // Ignored (the rewrite is already consistent at the file
            // level) but accounted.
            let _ = crate::io_faults::account("journal", &e);
        }

        let file = crate::vfs::acct("journal", fs.open_append(&path))?;
        Ok(Journal {
            path,
            fingerprint,
            replayed,
            report,
            crash_after: parse_crash_after(),
            inner: Mutex::new(Inner {
                file,
                seq: kept_lines.len() as u64,
                appended: 0,
                seen: HashSet::new(),
                replayed_cells: 0,
                ran_cells: 0,
            }),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What the open pass found (resume statistics).
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// Number of records appended by *this* process.
    pub fn appended(&self) -> u64 {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).appended
    }

    /// The journaled result for `label`, if a valid matching `ok`
    /// record was replayed at open.
    pub fn completed(&self, label: &str) -> Option<&Replayed> {
        self.replayed.get(label)
    }

    /// Counts one sweep against this journal: `replayed` of its cells
    /// came from the journal's records and `ran` ran.
    pub fn note_sweep(&self, replayed: usize, ran: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.replayed_cells += replayed as u64;
        inner.ran_cells += ran as u64;
    }

    /// What the sweeps run against this journal did so far: cells
    /// replayed from its records and cells run. A record no cell asks
    /// for replays nothing, whatever [`Journal::open_report`] counted.
    pub fn swept(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.replayed_cells, inner.ran_cells)
    }

    /// Appends one finished-cell record, fsyncing before returning, so
    /// the record survives any subsequent process death. `outcome` is
    /// `"ok"` (with `payload`) or `"failed"` (with `reason`).
    pub fn append(
        &self,
        label: &str,
        outcome: &str,
        attempts: u64,
        reason: &str,
        payload: &str,
        refs: u64,
        prep_seconds: f64,
        sim_seconds: f64,
    ) -> std::io::Result<()> {
        let mut inner =
            self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.seen.insert(label.to_string()) {
            eprintln!(
                "warning: journal {} saw cell label '{label}' twice in one run; \
                 resume keys on labels, the later record wins",
                self.path.display()
            );
        }
        let rec = Record {
            fp: self.fingerprint.clone(),
            seq: inner.seq,
            label: label.to_string(),
            outcome: outcome.to_string(),
            attempts,
            reason: reason.to_string(),
            refs,
            prep_seconds,
            sim_seconds,
            payload: payload.to_string(),
        };
        let line = encode_record(&rec);
        // Appends retry with backoff: a transient disk fault costs this
        // cell a few milliseconds, not its durability. A failed attempt
        // may have landed a torn prefix of the line, so every retry is
        // preceded by a newline — the fragment becomes its own line,
        // which the per-line CRC quarantines at the next open, while the
        // retried record stays intact. If every attempt fails only this
        // cell's record is lost: it simply re-runs on `--resume`.
        let mut dirty = false;
        let mut outcome_io = Ok(());
        for attempt in 0..3u32 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
            }
            let payload =
                if dirty { format!("\n{line}\n") } else { format!("{line}\n") };
            let wrote = (|| {
                crate::vfs::acct("journal", inner.file.write_all(payload.as_bytes()))?;
                crate::vfs::acct("journal", inner.file.flush())?;
                crate::vfs::acct("journal", inner.file.sync_data())
            })();
            match wrote {
                Ok(()) => {
                    outcome_io = Ok(());
                    break;
                }
                Err(e) => {
                    dirty = true;
                    outcome_io = Err(e);
                }
            }
        }
        outcome_io?;
        inner.seq += 1;
        inner.appended += 1;
        if Some(inner.appended) == self.crash_after {
            eprintln!(
                "COLT_CRASH_AFTER_CELLS: aborting after {} journaled cell(s)",
                inner.appended
            );
            std::process::abort();
        }
        Ok(())
    }
}

/// Codec torture every sealed schema runs: a bit flip at EVERY position
/// of `sealed` must never panic and never open as a different record.
/// (Flips in the covered bytes fail the CRC; flips inside the crc member
/// fail the strict lowercase-hex comparison.)
#[cfg(test)]
pub(crate) fn assert_open_rejects_every_flip(sealed: &str, schema: &str) {
    let Opened::Record(original) = open(sealed, schema) else {
        panic!("the intact record must open: {sealed}");
    };
    let bytes = sealed.as_bytes();
    for bit in 0..bytes.len() * 8 {
        let mut corrupt = bytes.to_vec();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        // Stores read lossily on purpose (a flip in a UTF-8
        // continuation byte must surface as corruption, not abort the
        // read); mirror that here.
        let text = String::from_utf8_lossy(&corrupt);
        if let Opened::Record(doc) = open(&text, schema) {
            assert_eq!(doc, original, "bit {bit} flipped silently into a different record");
        }
    }
}

/// Truncation at every prefix length never opens as a record — a torn
/// tail can never be trusted.
#[cfg(test)]
pub(crate) fn assert_open_rejects_every_truncation(sealed: &str, schema: &str) {
    for len in 0..sealed.len() {
        let Some(prefix) = sealed.get(..len) else { continue };
        assert!(
            !matches!(open(prefix, schema), Opened::Record(_)),
            "a {len}-byte prefix opened as a whole record"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> crate::io_faults::TestDir {
        crate::io_faults::TestDir::new(&format!("journal-{tag}"))
    }

    fn append_ok(j: &Journal, label: &str, payload: &str) {
        j.append(label, "ok", 1, "", payload, 1000, 0.5, 0.25).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The one-byte-per-step loop the sliced [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        use colt_prng::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC4C3_2B17);
        let buf: Vec<u8> = (0..1024 + 8).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every length at every start offset within a chunk, so each
        // split between the sliced steps and the bytewise tail occurs.
        for start in 0..8 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        let big: Vec<u8> = (0..3 << 20).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big), "3 MiB buffer");
    }

    #[test]
    fn record_roundtrip_preserves_everything() {
        let rec = Record {
            fp: "deadbeef".to_string(),
            seq: 7,
            label: "exp/Mcf/CoLT-All/r0.050".to_string(),
            outcome: "ok".to_string(),
            attempts: 2,
            reason: "a \"quoted\"\nreason\twith|specials;".to_string(),
            refs: 11_000,
            prep_seconds: 0.1 + 0.2, // not exactly representable — bit-exact anyway
            sim_seconds: 3.25,
            payload: "sim1|1|2|3".to_string(),
        };
        let line = encode_record(&rec);
        let back = parse_record(&line).unwrap();
        assert_eq!(back.fp, rec.fp);
        assert_eq!(back.seq, rec.seq);
        assert_eq!(back.label, rec.label);
        assert_eq!(back.outcome, rec.outcome);
        assert_eq!(back.attempts, rec.attempts);
        assert_eq!(back.reason, rec.reason);
        assert_eq!(back.refs, rec.refs);
        assert_eq!(back.prep_seconds.to_bits(), rec.prep_seconds.to_bits());
        assert_eq!(back.sim_seconds.to_bits(), rec.sim_seconds.to_bits());
        assert_eq!(back.payload, rec.payload);
    }

    #[test]
    fn payload_helpers_roundtrip_losslessly() {
        let s = Enc::new("t1").u(42).f(0.1 + 0.2).s("a|b;c\\d").done();
        let mut d = Dec::new(&s, "t1").unwrap();
        assert_eq!(d.u(), Some(42));
        assert_eq!(d.f().map(f64::to_bits), Some((0.1f64 + 0.2).to_bits()));
        assert_eq!(d.s().as_deref(), Some("a|b;c\\d"));
        assert!(d.exhausted());
        assert!(Dec::new(&s, "t2").is_none(), "wrong tag must not decode");
    }

    #[test]
    fn truncated_garbage_flipped_crc_and_version_bump_are_quarantined() {
        let dir = tmpdir("robust");
        {
            let j = Journal::open(&dir, "exp", "aaaa0001".into(), false).unwrap();
            append_ok(&j, "cell/one", "u1|1");
            append_ok(&j, "cell/two", "u1|2");
        }
        let path = dir.join("exp.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);

        // Flip a checksum digit on line 2, add garbage, a truncated
        // line (simulated mid-write kill), and a version-bumped record.
        let mut flipped = lines[1].to_string();
        let pos = flipped.rfind(CRC_MEMBER).unwrap() + CRC_MEMBER.len();
        let old = flipped.as_bytes()[pos];
        let new = if old == b'0' { b'1' } else { b'0' };
        unsafe { flipped.as_bytes_mut()[pos] = new };

        let vrec = Record {
            fp: "aaaa0001".into(),
            seq: 9,
            label: "cell/future".into(),
            outcome: "ok".into(),
            attempts: 1,
            reason: String::new(),
            refs: 0,
            prep_seconds: 0.0,
            sim_seconds: 0.0,
            payload: "u1|9".into(),
        };
        let vline = encode_record(&vrec);
        // Re-stamp the schema and re-seal: the checksum stays valid.
        let unsealed = vline[..vline.rfind(CRC_MEMBER).unwrap()]
            .replacen(RECORD_SCHEMA, "colt-journal/v99", 1);
        let vline = seal(&json::parse(&format!("{unsealed}}}")).unwrap());
        // A line in the older, unsealed format.
        let older = "{\"v\":1,\"fp\":\"aaaa0001\",\"seq\":3,\"crc\":\"00000000\"}";

        let truncated = &lines[0][..lines[0].len() / 2];
        let doctored = format!(
            "{}\n{}\nnot json at all\n{}\n{}\n{}\n",
            lines[0], flipped, vline, older, truncated
        );
        std::fs::write(&path, doctored).unwrap();

        let j = Journal::open(&dir, "exp", "aaaa0001".into(), true).unwrap();
        let report = j.open_report();
        assert_eq!(report.replayed, 1, "only the intact record replays");
        assert!(j.completed("cell/one").is_some());
        assert!(j.completed("cell/two").is_none(), "flipped checksum never reused");
        assert!(j.completed("cell/future").is_none(), "schema bump never reused");
        assert_eq!(report.corrupt_lines, 3, "flipped + garbage + truncated");
        assert_eq!(report.schema_skipped, 2, "future schema + unsealed older line");
        let qpath = report.quarantined_to.clone().expect("quarantine file written");
        let quarantined = std::fs::read_to_string(&qpath).unwrap();
        assert_eq!(quarantined.lines().count(), 5);
        // The journal itself was rewritten corruption-free.
        let clean = std::fs::read_to_string(&path).unwrap();
        assert_eq!(clean.lines().count(), 1);
        parse_record(clean.lines().next().unwrap()).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_ignored_never_reused() {
        let dir = tmpdir("fp");
        {
            let j = Journal::open(&dir, "exp", "aaaa0001".into(), false).unwrap();
            append_ok(&j, "cell/one", "u1|1");
        }
        let j = Journal::open(&dir, "exp", "bbbb0002".into(), true).unwrap();
        assert_eq!(j.open_report().fingerprint_mismatches, 1);
        assert!(j.completed("cell/one").is_none());
    }

    #[test]
    fn failed_and_quarantined_records_rerun_on_resume() {
        let dir = tmpdir("failed");
        {
            let j = Journal::open(&dir, "exp", "aaaa0001".into(), false).unwrap();
            append_ok(&j, "cell/good", "u1|1");
            j.append("cell/bad", "failed", 1, "boom", "", 0, 0.0, 0.0).unwrap();
            j.append("cell/worse", "quarantined", 3, "deadline", "", 0, 0.0, 0.0)
                .unwrap();
        }
        let j = Journal::open(&dir, "exp", "aaaa0001".into(), true).unwrap();
        assert_eq!(j.open_report().replayed, 1);
        assert_eq!(j.open_report().failed_records, 2);
        assert!(j.completed("cell/bad").is_none());
        assert!(j.completed("cell/worse").is_none());
    }

    #[test]
    fn fresh_open_truncates_but_resume_keeps() {
        let dir = tmpdir("fresh");
        {
            let j = Journal::open(&dir, "exp", "aaaa0001".into(), false).unwrap();
            append_ok(&j, "cell/one", "u1|1");
        }
        {
            let j = Journal::open(&dir, "exp", "aaaa0001".into(), true).unwrap();
            assert_eq!(j.open_report().replayed, 1);
        }
        let j = Journal::open(&dir, "exp", "aaaa0001".into(), false).unwrap();
        assert_eq!(j.open_report().replayed, 0);
        assert!(j.completed("cell/one").is_none());
        assert_eq!(
            std::fs::read_to_string(dir.join("exp.jsonl")).unwrap().len(),
            0,
            "fresh open starts an empty journal"
        );
    }

    fn torture_record() -> Record {
        Record {
            fp: "deadbeef".to_string(),
            seq: 42,
            label: "pressure/Gobmk/CoLT-All/r0.050".to_string(),
            outcome: "ok".to_string(),
            attempts: 2,
            reason: "escaped \"reason\"\twith\nbreaks".to_string(),
            refs: 123_456,
            prep_seconds: 1.25,
            sim_seconds: 0.0625,
            payload: "sim;l1h=9;l2h=3;path\\with\\slashes".to_string(),
        }
    }

    /// Codec torture: a bit flip at EVERY position of an encoded line
    /// must never panic and never decode to different content. (Most
    /// flips land in the crc-covered body; flips inside the crc field
    /// itself are caught by the strict lowercase-hex comparison.)
    #[test]
    fn record_decode_never_accepts_a_flipped_bit() {
        assert_open_rejects_every_flip(&encode_record(&torture_record()), RECORD_SCHEMA);
    }

    /// Truncation at every prefix length is rejected — a torn journal
    /// tail can never replay as a completed cell.
    #[test]
    fn record_decode_rejects_every_truncation() {
        assert_open_rejects_every_truncation(&encode_record(&torture_record()), RECORD_SCHEMA);
    }

}
