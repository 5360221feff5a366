//! Persistent stage-artifact store — the disk sibling of the engine's
//! tier-0 artifact cache.
//!
//! The staged compile pipeline (PR 5) reuses optimized ASTs and lowered
//! binaries *within* a run; this store keeps the hot ones *across* runs,
//! next to the fitness shards (`<store-dir>/artifacts.log`). Records are
//! keyed by stage digests plus the module **body** hash
//! ([`minicc::ast::Module::body_hash`] — everything except the name), so
//! a renamed-but-otherwise-identical module, whose fitness keys are all
//! cold, still warm-starts its compiles from the previous run's
//! artifacts.
//!
//! Retention is sized by **measured per-stage cost**, not the in-run
//! multiplicity>=2 heuristic: each record carries the seconds its stage
//! took to produce, [`ArtifactRetention::min_stage_seconds`] drops
//! artifacts too cheap to be worth disk, and when the log exceeds
//! [`ArtifactRetention::max_bytes`] the cheapest artifacts are evicted
//! first (they cost the least to recompute).
//!
//! Same corruption discipline as the fitness shards: length-prefixed
//! FNV-checksummed records, loading never fails (valid prefix kept,
//! damaged tail dropped, foreign file is a cold start), one
//! [`StoreLock`] on the log across saves, atomic tmp+rename when
//! eviction forces a rewrite.

use super::{timed, LoadReport, SaveOutcome, StoreLock};
use bytes::BufMut;
use evald::{WireAstArtifact, WireLowerArtifact};
use minicc::fnv1a32 as checksum;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Artifact log magic: `BTAS` (BinTuner Artifact Store) + version.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"BTAS";
const ARTIFACT_VERSION: u32 = 1;
const ARTIFACT_HEADER_LEN: usize = 8;

const TAG_AST: u8 = 0;
const TAG_LOWER: u8 = 1;

/// Fixed prefix of an AST record's payload: tag + key (8+1+16) + cost.
const AST_FIXED: usize = 1 + 25 + 8;
/// Fixed prefix of a lower record's payload: tag + key (8+1+1+16+16) +
/// cost.
const LOWER_FIXED: usize = 1 + 42 + 8;

/// Sanity cap on a single record payload — a forged length beyond this
/// is treated as a corrupt tail instead of driving an allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// Key of a persisted optimized-AST artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AstArtifactKey {
    /// [`minicc::ast::Module::body_hash`] of the source module.
    pub body_hash: u64,
    /// [`minicc::CompilerKind::stable_id`] tag.
    pub compiler: u8,
    /// AST-stage digest (`minicc::stage::AstStageKey::stable_digest`).
    pub ast_digest: u128,
}

/// Key of a persisted lowered-binary artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LowerArtifactKey {
    /// [`minicc::ast::Module::body_hash`] of the source module.
    pub body_hash: u64,
    /// [`minicc::CompilerKind::stable_id`] tag.
    pub compiler: u8,
    /// Stable architecture tag (see [`super::arch_tag`]).
    pub arch: u8,
    /// AST-stage digest the lowering consumed.
    pub ast_digest: u128,
    /// Lower-stage digest (`minicc::stage::LowerStageKey::stable_digest`).
    pub lower_digest: u128,
}

/// Retention policy: which artifacts earn disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactRetention {
    /// Soft cap on the log's total size. When exceeded at save time the
    /// log is rewritten keeping the most expensive artifacts first.
    pub max_bytes: u64,
    /// Artifacts whose stage took less than this many seconds to
    /// produce are not persisted (and are evicted on the next rewrite):
    /// recomputing them is cheaper than the disk traffic.
    pub min_stage_seconds: f64,
}

impl Default for ArtifactRetention {
    fn default() -> ArtifactRetention {
        ArtifactRetention {
            max_bytes: 64 << 20,
            min_stage_seconds: 0.0,
        }
    }
}

/// Where a live artifact sits in the log.
#[derive(Debug, Clone, Copy)]
struct DiskArtifact {
    /// Offset of the record's length prefix.
    record_off: u64,
    /// Whole record length (prefix + payload + checksum).
    record_len: u32,
    /// Blob position within the file.
    blob_off: u64,
    blob_len: u32,
    /// Measured stage seconds (the retention currency).
    cost: f64,
}

/// A pending (not yet saved) artifact.
#[derive(Debug, Clone)]
struct PendingArtifact<K> {
    key: K,
    cost: f64,
    blob: Vec<u8>,
}

/// Disk-backed map from stage-digest keys to compiled artifact bytes.
///
/// Blobs stay on disk: loading builds only the compact offset index,
/// [`ArtifactStore::fetch_ast`]/[`ArtifactStore::fetch_lower`] read and
/// re-verify a record on demand. Pending inserts become queryable only
/// after [`ArtifactStore::save`] — membership must look the same to
/// every backend within a run, and only the saved log is shared state.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    path: Option<PathBuf>,
    ast: HashMap<AstArtifactKey, DiskArtifact>,
    lower: HashMap<LowerArtifactKey, DiskArtifact>,
    pending_ast: Vec<PendingArtifact<AstArtifactKey>>,
    pending_lower: Vec<PendingArtifact<LowerArtifactKey>>,
    /// Total bytes of live records on disk (dead bytes excluded).
    live_bytes: u64,
    /// Bytes in the file, live or dead — the compaction trigger.
    file_bytes: u64,
    needs_rewrite: bool,
    retention: ArtifactRetention,
    report: LoadReport,
    /// Save-timing histogram (`bintuner_store_artifact_save_seconds`);
    /// `None` (the default) takes no telemetry path at all.
    tel: Option<std::sync::Arc<btel::Histogram>>,
}

impl ArtifactStore {
    /// A store with no backing file; saves are no-ops.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Load the artifact log living inside store directory `dir`
    /// (`<dir>/artifacts.log`). Never fails: missing file or missing
    /// directory is a clean cold start, foreign/damaged content degrades
    /// per the usual store contract.
    pub fn load(dir: &Path) -> ArtifactStore {
        let path = dir.join("artifacts.log");
        let mut store = ArtifactStore {
            path: Some(path.clone()),
            ..ArtifactStore::default()
        };
        match fs::read(&path) {
            Ok(bytes) => store.parse(&bytes),
            Err(_) => store.report.missing = true,
        }
        store
    }

    /// Override the retention policy (builder style).
    pub fn with_retention(mut self, retention: ArtifactRetention) -> ArtifactStore {
        self.retention = retention;
        self
    }

    /// The active retention policy.
    pub fn retention(&self) -> ArtifactRetention {
        self.retention
    }

    /// Install a save-timing histogram, conventionally declared in the
    /// run's registry as `bintuner_store_artifact_save_seconds`. Without
    /// this call saves take no telemetry path at all.
    pub fn set_telemetry(&mut self, save_seconds: std::sync::Arc<btel::Histogram>) {
        self.tel = Some(save_seconds);
    }

    fn parse(&mut self, bytes: &[u8]) {
        if bytes.len() < ARTIFACT_HEADER_LEN
            || bytes[..4] != ARTIFACT_MAGIC
            || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != ARTIFACT_VERSION
        {
            self.report.malformed_header = true;
            self.report.dropped_bytes = bytes.len();
            self.needs_rewrite = true;
            self.file_bytes = bytes.len() as u64;
            return;
        }
        let mut off = ARTIFACT_HEADER_LEN;
        while off + 4 <= bytes.len() {
            let p_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let end = off + 4 + p_len + 4;
            if !(AST_FIXED..=MAX_PAYLOAD).contains(&p_len) || end > bytes.len() {
                break;
            }
            let payload = &bytes[off + 4..off + 4 + p_len];
            let stored = u32::from_le_bytes(bytes[end - 4..end].try_into().unwrap());
            if checksum(payload) != stored || !self.index_record(off as u64, payload) {
                break;
            }
            self.report.valid_records += 1;
            off = end;
        }
        self.file_bytes = bytes.len() as u64;
        self.live_bytes = self
            .ast
            .values()
            .chain(self.lower.values())
            .map(|a| u64::from(a.record_len))
            .sum();
        if off != bytes.len() {
            self.report.dropped_bytes = bytes.len() - off;
            self.needs_rewrite = true;
        }
    }

    /// Index one checksum-verified payload. Returns false on an unknown
    /// tag or malformed key section (corrupt tail).
    fn index_record(&mut self, record_off: u64, payload: &[u8]) -> bool {
        let record_len = (4 + payload.len() + 4) as u32;
        let u64_at = |off: usize| u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
        let u128_at = |off: usize| (u128::from(u64_at(off)) << 64) | u128::from(u64_at(off + 8));
        match payload[0] {
            TAG_AST if payload.len() >= AST_FIXED => {
                let key = AstArtifactKey {
                    body_hash: u64_at(1),
                    compiler: payload[9],
                    ast_digest: u128_at(10),
                };
                let cost = f64::from_bits(u64_at(26));
                self.ast.insert(
                    key,
                    DiskArtifact {
                        record_off,
                        record_len,
                        blob_off: record_off + 4 + AST_FIXED as u64,
                        blob_len: (payload.len() - AST_FIXED) as u32,
                        cost,
                    },
                );
                true
            }
            TAG_LOWER if payload.len() >= LOWER_FIXED => {
                let key = LowerArtifactKey {
                    body_hash: u64_at(1),
                    compiler: payload[9],
                    arch: payload[10],
                    ast_digest: u128_at(11),
                    lower_digest: u128_at(27),
                };
                let cost = f64::from_bits(u64_at(43));
                self.lower.insert(
                    key,
                    DiskArtifact {
                        record_off,
                        record_len,
                        blob_off: record_off + 4 + LOWER_FIXED as u64,
                        blob_len: (payload.len() - LOWER_FIXED) as u32,
                        cost,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// What loading found on disk.
    pub fn report(&self) -> LoadReport {
        self.report
    }

    /// Live persisted artifact count (pending inserts excluded).
    pub fn len(&self) -> usize {
        self.ast.len() + self.lower.len()
    }

    /// Whether no artifacts are persisted.
    pub fn is_empty(&self) -> bool {
        self.ast.is_empty() && self.lower.is_empty()
    }

    /// Artifacts queued since the last save.
    pub fn pending_len(&self) -> usize {
        self.pending_ast.len() + self.pending_lower.len()
    }

    /// Whether a persisted optimized AST exists for this key. Membership
    /// only — the deterministic input to miss classification.
    pub fn has_ast(&self, key: &AstArtifactKey) -> bool {
        self.ast.contains_key(key)
    }

    /// Whether a persisted lowered binary exists for this key.
    pub fn has_lower(&self, key: &LowerArtifactKey) -> bool {
        self.lower.contains_key(key)
    }

    /// Read an AST artifact's blob back, re-verifying its checksum.
    /// `None` if absent or if the record fails verification (e.g. the
    /// log was compacted underneath us) — callers recompute.
    pub fn fetch_ast(&self, key: &AstArtifactKey) -> Option<Vec<u8>> {
        self.fetch(*self.ast.get(key)?, &ast_sort_key(key))
    }

    /// Read a lowered-binary artifact's blob back ([`ArtifactStore::fetch_ast`]
    /// contract).
    pub fn fetch_lower(&self, key: &LowerArtifactKey) -> Option<Vec<u8>> {
        self.fetch(*self.lower.get(key)?, &lower_sort_key(key))
    }

    /// Read a record back from disk, verifying both its checksum and
    /// its identity (`key_bytes` = tag + key) — a log compacted by
    /// another process may have a *different* valid record at this
    /// offset, which must read as a miss, not as the wrong blob.
    fn fetch(&self, at: DiskArtifact, key_bytes: &[u8]) -> Option<Vec<u8>> {
        let path = self.path.as_ref()?;
        let mut f = fs::File::open(path).ok()?;
        f.seek(SeekFrom::Start(at.record_off)).ok()?;
        let mut record = vec![0u8; at.record_len as usize];
        f.read_exact(&mut record).ok()?;
        let p_len = u32::from_le_bytes(record[..4].try_into().unwrap()) as usize;
        if 4 + p_len + 4 != record.len() {
            return None;
        }
        let payload = &record[4..4 + p_len];
        let stored = u32::from_le_bytes(record[4 + p_len..].try_into().unwrap());
        if checksum(payload) != stored || !payload.starts_with(key_bytes) {
            return None;
        }
        let blob_start = (at.blob_off - at.record_off) as usize;
        record
            .get(blob_start..blob_start + at.blob_len as usize)
            .map(<[u8]>::to_vec)
    }

    /// Queue an optimized-AST artifact (`blob` is the `minicc::codec`
    /// encoding; `cost` the measured stage seconds). No-op if the key is
    /// already live or pending, or the cost is below the retention
    /// floor.
    pub fn insert_ast(&mut self, key: AstArtifactKey, cost: f64, blob: Vec<u8>) {
        if cost < self.retention.min_stage_seconds
            || self.ast.contains_key(&key)
            || self.pending_ast.iter().any(|p| p.key == key)
        {
            return;
        }
        self.pending_ast.push(PendingArtifact { key, cost, blob });
    }

    /// Queue a lowered-binary artifact (`blob` is the `binrep::codec`
    /// encoding; [`ArtifactStore::insert_ast`] contract).
    pub fn insert_lower(&mut self, key: LowerArtifactKey, cost: f64, blob: Vec<u8>) {
        if cost < self.retention.min_stage_seconds
            || self.lower.contains_key(&key)
            || self.pending_lower.iter().any(|p| p.key == key)
        {
            return;
        }
        self.pending_lower.push(PendingArtifact { key, cost, blob });
    }

    /// Queue farm-produced artifacts as they arrived over the merge
    /// barrier ([`ArtifactStore::drain_pending`] on the worker side), with
    /// the [`ArtifactStore::insert_ast`] contract: live or pending keys
    /// are skipped, so folding the same artifact twice is a no-op.
    pub fn insert_wire(&mut self, ast: Vec<WireAstArtifact>, lower: Vec<WireLowerArtifact>) {
        for a in ast {
            let key = AstArtifactKey {
                body_hash: a.body_hash,
                compiler: a.compiler,
                ast_digest: a.ast_digest,
            };
            self.insert_ast(key, f64::from_bits(a.cost_bits), a.blob);
        }
        for a in lower {
            let key = LowerArtifactKey {
                body_hash: a.body_hash,
                compiler: a.compiler,
                arch: a.arch,
                ast_digest: a.ast_digest,
                lower_digest: a.lower_digest,
            };
            self.insert_lower(key, f64::from_bits(a.cost_bits), a.blob);
        }
    }

    /// Drain the artifacts queued since the last save (or drain),
    /// clearing the pending queues, in the form the merge barrier ships
    /// them (the inverse of [`ArtifactStore::insert_wire`]): farm
    /// workers' freshly computed stage artifacts travel back this way to
    /// the server's persistent log.
    pub fn drain_pending(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        let ast = self.pending_ast.drain(..).map(|p| WireAstArtifact {
            body_hash: p.key.body_hash,
            compiler: p.key.compiler,
            ast_digest: p.key.ast_digest,
            cost_bits: p.cost.to_bits(),
            blob: p.blob,
        });
        let lower = self.pending_lower.drain(..).map(|p| WireLowerArtifact {
            body_hash: p.key.body_hash,
            compiler: p.key.compiler,
            arch: p.key.arch,
            ast_digest: p.key.ast_digest,
            lower_digest: p.key.lower_digest,
            cost_bits: p.cost.to_bits(),
            blob: p.blob,
        });
        (ast.collect(), lower.collect())
    }

    /// Flush pending artifacts under the log's [`StoreLock`].
    ///
    /// Fast path appends; the log is rewritten (tmp + atomic rename)
    /// when it was corrupt, when dead records dominate, or when the
    /// retention budget is exceeded — eviction drops the cheapest
    /// artifacts first, deterministically. A missing parent directory
    /// (the fitness store has not been saved as v4 yet) or a contended
    /// lock degrades to [`SaveOutcome::SkippedLocked`] with pending
    /// kept.
    pub fn save(&mut self) -> io::Result<SaveOutcome> {
        let Some(path) = self.path.clone() else {
            self.pending_ast.clear();
            self.pending_lower.clear();
            return Ok(SaveOutcome::Written);
        };
        if self.pending_len() == 0 && !self.needs_rewrite && !self.over_budget() {
            return Ok(SaveOutcome::Written);
        }
        match path.parent() {
            Some(dir) if dir.as_os_str().is_empty() || dir.is_dir() => {}
            _ => return Ok(SaveOutcome::SkippedLocked),
        }
        let Some(_lock) = StoreLock::acquire(&path)? else {
            return Ok(SaveOutcome::SkippedLocked);
        };
        let pending_bytes: u64 = self
            .pending_ast
            .iter()
            .map(|p| (4 + AST_FIXED + p.blob.len() + 4) as u64)
            .chain(
                self.pending_lower
                    .iter()
                    .map(|p| (4 + LOWER_FIXED + p.blob.len() + 4) as u64),
            )
            .sum();
        let compact = self.needs_rewrite
            || !path.exists()
            || self.file_bytes + pending_bytes > self.retention.max_bytes
            || self.live_bytes * 2 < self.file_bytes;
        let tel = self.tel.clone();
        timed(tel.as_deref(), || {
            if compact {
                self.rewrite(&path)
            } else {
                self.append(&path)
            }
        })?;
        Ok(SaveOutcome::Written)
    }

    fn over_budget(&self) -> bool {
        self.file_bytes > self.retention.max_bytes
    }

    fn append(&mut self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::new();
        let base = fs::metadata(path)?.len();
        let mut new_ast = Vec::new();
        let mut new_lower = Vec::new();
        for p in &self.pending_ast {
            let off = base + buf.len() as u64;
            let rec = encode_ast(&p.key, p.cost, &p.blob);
            new_ast.push((p.key, disk_at(off, &rec, AST_FIXED, p.cost)));
            buf.extend_from_slice(&rec);
        }
        for p in &self.pending_lower {
            let off = base + buf.len() as u64;
            let rec = encode_lower(&p.key, p.cost, &p.blob);
            new_lower.push((p.key, disk_at(off, &rec, LOWER_FIXED, p.cost)));
            buf.extend_from_slice(&rec);
        }
        let mut file = fs::OpenOptions::new().append(true).open(path)?;
        io::Write::write_all(&mut file, &buf)?;
        for (k, a) in new_ast {
            self.live_bytes += u64::from(a.record_len);
            self.ast.insert(k, a);
        }
        for (k, a) in new_lower {
            self.live_bytes += u64::from(a.record_len);
            self.lower.insert(k, a);
        }
        self.file_bytes += buf.len() as u64;
        self.pending_ast.clear();
        self.pending_lower.clear();
        Ok(())
    }

    /// Rewrite the whole log applying retention. Survivor order (and
    /// therefore eviction) is deterministic: most expensive first,
    /// ties broken by key.
    fn rewrite(&mut self, path: &Path) -> io::Result<()> {
        enum Rec {
            Ast(AstArtifactKey),
            Lower(LowerArtifactKey),
        }
        // Materialize every candidate: live disk records (blobs read
        // back and re-verified — unreadable ones drop out) + pending.
        let mut candidates: Vec<(f64, Vec<u8>, Rec, Vec<u8>)> = Vec::new(); // (cost, sort key, kind, blob)
        for (key, at) in &self.ast {
            if at.cost < self.retention.min_stage_seconds {
                continue;
            }
            if let Some(blob) = self.fetch(*at, &ast_sort_key(key)) {
                candidates.push((at.cost, ast_sort_key(key), Rec::Ast(*key), blob));
            }
        }
        for (key, at) in &self.lower {
            if at.cost < self.retention.min_stage_seconds {
                continue;
            }
            if let Some(blob) = self.fetch(*at, &lower_sort_key(key)) {
                candidates.push((at.cost, lower_sort_key(key), Rec::Lower(*key), blob));
            }
        }
        for p in self.pending_ast.drain(..) {
            candidates.push((p.cost, ast_sort_key(&p.key), Rec::Ast(p.key), p.blob));
        }
        for p in self.pending_lower.drain(..) {
            candidates.push((p.cost, lower_sort_key(&p.key), Rec::Lower(p.key), p.blob));
        }
        // Most expensive first; eviction truncates the cheap tail.
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        let mut buf = Vec::with_capacity(ARTIFACT_HEADER_LEN);
        buf.extend_from_slice(&ARTIFACT_MAGIC);
        buf.put_u32_le(ARTIFACT_VERSION);
        let mut ast = HashMap::new();
        let mut lower = HashMap::new();
        for (cost, _, kind, blob) in candidates {
            let (rec, fixed) = match &kind {
                Rec::Ast(k) => (encode_ast(k, cost, &blob), AST_FIXED),
                Rec::Lower(k) => (encode_lower(k, cost, &blob), LOWER_FIXED),
            };
            if buf.len() as u64 + rec.len() as u64 > self.retention.max_bytes
                && !(ast.is_empty() && lower.is_empty())
            {
                break; // budget reached: everything cheaper is evicted
            }
            let at = disk_at(buf.len() as u64, &rec, fixed, cost);
            match kind {
                Rec::Ast(k) => {
                    ast.insert(k, at);
                }
                Rec::Lower(k) => {
                    lower.insert(k, at);
                }
            }
            buf.extend_from_slice(&rec);
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &buf)?;
        fs::rename(&tmp, path)?;
        self.ast = ast;
        self.lower = lower;
        self.file_bytes = buf.len() as u64;
        self.live_bytes = self
            .ast
            .values()
            .chain(self.lower.values())
            .map(|a| u64::from(a.record_len))
            .sum();
        self.needs_rewrite = false;
        Ok(())
    }
}

fn disk_at(record_off: u64, rec: &[u8], fixed: usize, cost: f64) -> DiskArtifact {
    DiskArtifact {
        record_off,
        record_len: rec.len() as u32,
        blob_off: record_off + 4 + fixed as u64,
        blob_len: (rec.len() - 4 - fixed - 4) as u32,
        cost,
    }
}

/// The exact tag + key prefix of an AST record's payload — both the
/// deterministic sort key for eviction and the identity `fetch` checks.
fn ast_sort_key(k: &AstArtifactKey) -> Vec<u8> {
    let mut v = vec![TAG_AST];
    v.extend_from_slice(&k.body_hash.to_le_bytes());
    v.push(k.compiler);
    v.extend_from_slice(&((k.ast_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.ast_digest as u64).to_le_bytes());
    v
}

/// Lower-record half of [`ast_sort_key`], same contract.
fn lower_sort_key(k: &LowerArtifactKey) -> Vec<u8> {
    let mut v = vec![TAG_LOWER];
    v.extend_from_slice(&k.body_hash.to_le_bytes());
    v.push(k.compiler);
    v.push(k.arch);
    v.extend_from_slice(&((k.ast_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.ast_digest as u64).to_le_bytes());
    v.extend_from_slice(&((k.lower_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.lower_digest as u64).to_le_bytes());
    v
}

fn encode_ast(key: &AstArtifactKey, cost: f64, blob: &[u8]) -> Vec<u8> {
    let p_len = AST_FIXED + blob.len();
    let mut rec = Vec::with_capacity(4 + p_len + 4);
    rec.put_u32_le(p_len as u32);
    rec.put_u8(TAG_AST);
    rec.put_u64_le(key.body_hash);
    rec.put_u8(key.compiler);
    rec.put_u64_le((key.ast_digest >> 64) as u64);
    rec.put_u64_le(key.ast_digest as u64);
    rec.put_u64_le(cost.to_bits());
    rec.put_slice(blob);
    let ck = checksum(&rec[4..]);
    rec.put_u32_le(ck);
    rec
}

fn encode_lower(key: &LowerArtifactKey, cost: f64, blob: &[u8]) -> Vec<u8> {
    let p_len = LOWER_FIXED + blob.len();
    let mut rec = Vec::with_capacity(4 + p_len + 4);
    rec.put_u32_le(p_len as u32);
    rec.put_u8(TAG_LOWER);
    rec.put_u64_le(key.body_hash);
    rec.put_u8(key.compiler);
    rec.put_u8(key.arch);
    rec.put_u64_le((key.ast_digest >> 64) as u64);
    rec.put_u64_le(key.ast_digest as u64);
    rec.put_u64_le((key.lower_digest >> 64) as u64);
    rec.put_u64_le(key.lower_digest as u64);
    rec.put_u64_le(cost.to_bits());
    rec.put_slice(blob);
    let ck = checksum(&rec[4..]);
    rec.put_u32_le(ck);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "bintuner_artifacts_{}_{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn akey(i: u64) -> AstArtifactKey {
        AstArtifactKey {
            body_hash: 0xB0D1 + i,
            compiler: 0,
            ast_digest: u128::from(i) << 64 | 0xA57,
        }
    }

    fn lkey(i: u64) -> LowerArtifactKey {
        LowerArtifactKey {
            body_hash: 0xB0D1 + i,
            compiler: 0,
            arch: 1,
            ast_digest: u128::from(i) << 64 | 0xA57,
            lower_digest: u128::from(i) << 64 | 0x10E4,
        }
    }

    fn blob(i: u64, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i as usize * 31 + j) as u8).collect()
    }

    #[test]
    fn round_trip_and_fetch_verification() {
        let dir = scratch_dir("round_trip");
        let mut store = ArtifactStore::load(&dir);
        assert!(store.report().missing);
        store.insert_ast(akey(1), 0.5, blob(1, 100));
        store.insert_lower(lkey(2), 1.5, blob(2, 200));
        // Pending artifacts are NOT queryable before save.
        assert!(!store.has_ast(&akey(1)));
        assert_eq!(store.save().unwrap(), SaveOutcome::Written);
        assert!(store.has_ast(&akey(1)));
        assert_eq!(store.fetch_ast(&akey(1)).unwrap(), blob(1, 100));

        let reloaded = ArtifactStore::load(&dir);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.report().valid_records, 2);
        assert_eq!(reloaded.fetch_ast(&akey(1)).unwrap(), blob(1, 100));
        assert_eq!(reloaded.fetch_lower(&lkey(2)).unwrap(), blob(2, 200));
        assert_eq!(reloaded.fetch_ast(&akey(9)), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_keeps_valid_prefix_and_fetch_survives_compaction_race() {
        let dir = scratch_dir("torn");
        let mut store = ArtifactStore::load(&dir);
        for i in 0..4 {
            store.insert_ast(akey(i), 1.0, blob(i, 64));
        }
        store.save().unwrap();
        let path = dir.join("artifacts.log");
        let bytes = fs::read(&path).unwrap();
        // Every truncation point loads a clean valid prefix.
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let s = ArtifactStore::load(&dir);
            assert!(s.len() <= 4);
            for i in 0..4 {
                if let Some(b) = s.fetch_ast(&akey(i)) {
                    assert_eq!(b, blob(i, 64));
                }
            }
        }
        fs::write(&path, &bytes).unwrap();

        // A fetch against a stale index (file rewritten underneath)
        // either returns verified bytes or None — never garbage.
        let stale = ArtifactStore::load(&dir);
        let mut fresh = ArtifactStore::load(&dir).with_retention(ArtifactRetention {
            max_bytes: 200, // forces eviction + rewrite
            min_stage_seconds: 0.0,
        });
        fresh.insert_ast(akey(9), 5.0, blob(9, 64));
        fresh.save().unwrap();
        for i in 0..4 {
            if let Some(b) = stale.fetch_ast(&akey(i)) {
                assert_eq!(b, blob(i, 64));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_evicts_cheapest_first_and_floors_by_cost() {
        let dir = scratch_dir("retention");
        let mut store = ArtifactStore::load(&dir).with_retention(ArtifactRetention {
            max_bytes: 3 * 200, // room for roughly two 200-byte blobs
            min_stage_seconds: 0.1,
        });
        store.insert_ast(akey(1), 0.01, blob(1, 200)); // below the floor: dropped
        store.insert_ast(akey(2), 9.0, blob(2, 200));
        store.insert_ast(akey(3), 4.0, blob(3, 200));
        store.insert_ast(akey(4), 1.0, blob(4, 200));
        store.save().unwrap();

        let got = ArtifactStore::load(&dir);
        assert!(!got.has_ast(&akey(1)), "sub-floor artifact persisted");
        assert!(got.has_ast(&akey(2)), "most expensive artifact evicted");
        assert!(
            !got.has_ast(&akey(4)) || got.has_ast(&akey(3)),
            "cheap survived while expensive evicted"
        );
        assert!(got.len() < 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_log_is_a_cold_start_and_heals_on_save() {
        let dir = scratch_dir("garbage");
        fs::write(dir.join("artifacts.log"), b"not an artifact log").unwrap();
        let mut store = ArtifactStore::load(&dir);
        assert!(store.is_empty());
        assert!(store.report().malformed_header);
        store.insert_ast(akey(1), 1.0, blob(1, 10));
        store.save().unwrap();
        let healed = ArtifactStore::load(&dir);
        assert!(!healed.report().malformed_header);
        assert_eq!(healed.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_parent_directory_degrades_to_a_skip() {
        let dir = std::env::temp_dir().join(format!(
            "bintuner_artifacts_{}_missing/never_created",
            std::process::id()
        ));
        let mut store = ArtifactStore::load(&dir);
        store.insert_ast(akey(1), 1.0, blob(1, 10));
        assert_eq!(store.save().unwrap(), SaveOutcome::SkippedLocked);
        assert_eq!(store.pending_len(), 1, "pending kept for a retry");
    }
}
