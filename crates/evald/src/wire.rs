//! The wire format: versioned, length-prefixed, checksummed frames.
//!
//! Every message between server and clients is one *frame*:
//!
//! ```text
//! [len: u32]                        length of everything after this field
//! [magic: "EVLD"][version: u32]     format identification, checked per frame
//! [tag: u8][payload ...]            the frame body, canonical little-endian
//! [checksum: u32]                   FNV-1a over magic..payload
//! ```
//!
//! The encodings follow the same canonical-bytes discipline as
//! `minicc::hash` and the fitness store's on-disk records: explicit
//! little-endian integers, length-prefixed sequences, packed bitmaps for
//! genomes, and `f64::to_bits` for floats (fitness values must cross the
//! wire *bit-exactly* — the embedder's differential guarantee rests on
//! it). Decoding never panics: a frame that is truncated, carries a
//! foreign version, fails its checksum, or has a malformed payload is
//! rejected with a typed [`EvaldError`].

use crate::EvaldError;
use bytes::BufMut;
use minicc::fnv1a32 as checksum;

/// Frame magic: `EVLD`.
pub const WIRE_MAGIC: [u8; 4] = *b"EVLD";

/// Wire-format version. Bump whenever any frame layout or encoding
/// changes; both ends reject mismatched frames instead of misreading
/// them. (v2: [`ShardStats`] grew the three per-stage pipeline-reuse
/// counters. v3: the [`Frame::Job`] frame, carrying the embedder's
/// opaque job description to pre-forked worker processes. v4:
/// [`Frame::Merge`] grew the two stage-artifact record lists, so farm
/// workers' freshly computed artifacts reach the server's persistent
/// artifact store instead of being recomputed on every warm start. v5:
/// trace-span propagation — [`Frame::Work`] carries the server's
/// dispatch-span id, [`ShardStats`] echoes it, and [`Frame::Result`]
/// carries the worker's recorded [`WireSpan`]s, so a farm worker's
/// per-stage compile timings stitch into the dispatching server's
/// trace. v6: the [`Frame::Ping`]/[`Frame::Pong`] liveness probes —
/// the server's heartbeat plane, so a hung worker is *detected* rather
/// than holding its shard copies forever.)
pub const WIRE_VERSION: u32 = 6;

/// Hard cap on one frame's declared length (a corrupted length prefix
/// must not trigger a multi-gigabyte allocation).
pub const MAX_FRAME_LEN: usize = 64 << 20;

const TAG_HELLO: u8 = 0;
const TAG_WORK: u8 = 1;
const TAG_RESULT: u8 = 2;
const TAG_END_BATCH: u8 = 3;
const TAG_MERGE: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_JOB: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_PONG: u8 = 8;

/// One genome's evaluation as reported by a client.
///
/// Fitness travels as raw bits so the server reassembles *exactly* the
/// f64 the client computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEval {
    /// `f64::to_bits` of the fitness.
    pub fitness_bits: u64,
    /// Whether the genome failed to compile (scored the penalty).
    pub failed: bool,
    /// Measured client-side wall-clock seconds, as bits (telemetry).
    pub wall_seconds_bits: u64,
}

impl WireEval {
    /// The fitness as an `f64`.
    pub fn fitness(&self) -> f64 {
        f64::from_bits(self.fitness_bits)
    }

    /// The measured wall-clock seconds as an `f64`.
    pub fn wall_seconds(&self) -> f64 {
        f64::from_bits(self.wall_seconds_bits)
    }
}

/// One client-cached fitness result shipped back for the server-side
/// store at batch end.
///
/// The key fields mirror the embedder's store key tuple — module content
/// hash, compiler tag, arch tag, effect digest — without this crate
/// depending on the store itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeRecord {
    /// Stable content hash of the module.
    pub module_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable one-byte architecture tag.
    pub arch: u8,
    /// Stable 128-bit effect-config digest.
    pub effect_digest: u128,
    /// `f64::to_bits` of the fitness.
    pub fitness_bits: u64,
    /// Whether the compile failed.
    pub failed: bool,
    /// The representative flag vector (minable metadata).
    pub flags: Vec<bool>,
}

/// One client-produced stage-1 artifact (optimized AST) shipped back on
/// the merge barrier so the server's persistent [`ArtifactStore`] learns
/// it without recompiling (v4).
///
/// The key fields mirror the embedder's `AstArtifactKey` — module body
/// hash, compiler tag, effect digest of the optimization prefix —
/// without this crate depending on the store itself. The cost travels
/// as raw `f64::to_bits` like every other float on the wire.
///
/// [`ArtifactStore`]: ../../bintuner/store/struct.ArtifactStore.html
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAstArtifact {
    /// Stable content hash of the module body.
    pub body_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable 128-bit digest of the stage-1 effect prefix.
    pub ast_digest: u128,
    /// `f64::to_bits` of the stage cost the artifact saves.
    pub cost_bits: u64,
    /// The canonically encoded artifact.
    pub blob: Vec<u8>,
}

/// One client-produced stage-2 artifact (lowered binary) shipped back on
/// the merge barrier (v4); see [`WireAstArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLowerArtifact {
    /// Stable content hash of the module body.
    pub body_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable one-byte architecture tag.
    pub arch: u8,
    /// Stable 128-bit digest of the stage-1 effect prefix.
    pub ast_digest: u128,
    /// Stable 128-bit digest of the full effect config.
    pub lower_digest: u128,
    /// `f64::to_bits` of the stage cost the artifact saves.
    pub cost_bits: u64,
    /// The canonically encoded artifact.
    pub blob: Vec<u8>,
}

/// One trace span recorded by a client while evaluating a shard,
/// shipped back on [`Frame::Result`] (v5).
///
/// The span ids are opaque `u64`s minted by the recording tracer;
/// workers offset their id space by client so stitched traces never
/// collide, and a worker's root spans carry the server's dispatch-span
/// id (delivered on [`Frame::Work`]) in `parent`. Offsets and
/// durations are microseconds on the *worker's* monotonic clock — the
/// consumer orders spans by parentage, not by cross-host clock
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span id, unique across the farm (workers offset their id space).
    pub id: u64,
    /// Parent span id; `0` means root.
    pub parent: u64,
    /// Stage or operation name (`ast`, `lower`, `mir`, …).
    pub name: String,
    /// Start offset on the recording process's monotonic clock, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// Per-shard client telemetry, carried on every [`Frame::Result`].
///
/// Equality compares `wall_seconds` by *bit pattern* (see the manual
/// [`PartialEq`] impl): telemetry crosses the wire as raw bits, and a
/// NaN or negative-zero measurement must not break round-trip equality
/// assertions the way derived f64 equality would.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Real compiles the client performed for this shard.
    pub compiles: u32,
    /// Evaluations the client served from its local cache.
    pub cache_hits: u32,
    /// Compiles that ran the client's full pipeline (no stage artifact
    /// reused).
    pub full_compiles: u32,
    /// Compiles that reused a cached stage-1 artifact (optimized AST).
    pub ast_reuse: u32,
    /// Compiles that reused a cached stage-2 artifact (lowered binary).
    pub lower_reuse: u32,
    /// Client-side wall-clock seconds spent on the shard.
    pub wall_seconds: f64,
    /// The server's dispatch-span id for this shard, echoed from
    /// [`Frame::Work`] (v5); `0` when tracing is off.
    pub span: u64,
}

impl PartialEq for ShardStats {
    fn eq(&self, other: &ShardStats) -> bool {
        self.compiles == other.compiles
            && self.cache_hits == other.cache_hits
            && self.full_compiles == other.full_compiles
            && self.ast_reuse == other.ast_reuse
            && self.lower_reuse == other.lower_reuse
            && self.wall_seconds.to_bits() == other.wall_seconds.to_bits()
            && self.span == other.span
    }
}

// Bit-pattern comparison is a true equivalence relation (unlike f64's
// `==`), so full `Eq` is sound.
impl Eq for ShardStats {}

/// The protocol's frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, once per connection: identity and chromosome
    /// width (the server rejects clients built against a different
    /// profile width). The wire version itself is in every frame header.
    Hello {
        /// Zero-based client id (assigned at launch).
        client: u32,
        /// Chromosome width the client evaluates.
        n_flags: u16,
    },
    /// Server → client: evaluate one shard of genomes.
    Work {
        /// Globally unique shard id (never reused across batches).
        shard: u64,
        /// The server's dispatch-span id for this shard (v5); `0` when
        /// tracing is off — which doubles as the client's signal not to
        /// record spans of its own.
        span: u64,
        /// The genomes, in shard order.
        genomes: Vec<Vec<bool>>,
    },
    /// Client → server: one shard's evaluations, in shard order, plus
    /// per-shard stats.
    Result {
        /// The shard this answers.
        shard: u64,
        /// The reporting client.
        client: u32,
        /// One evaluation per genome, in shard order.
        evals: Vec<WireEval>,
        /// Per-shard telemetry.
        stats: ShardStats,
        /// Trace spans the client recorded while evaluating the shard
        /// (v5); empty when tracing is off.
        spans: Vec<WireSpan>,
    },
    /// Server → client: the batch is complete; flush the local cache.
    EndBatch {
        /// Batch sequence number (telemetry).
        batch: u64,
    },
    /// Client → server: the local cache's fresh records, answering
    /// [`Frame::EndBatch`].
    Merge {
        /// The reporting client.
        client: u32,
        /// Fresh records since the last merge.
        records: Vec<MergeRecord>,
        /// Fresh stage-1 artifacts since the last merge (v4).
        ast_artifacts: Vec<WireAstArtifact>,
        /// Fresh stage-2 artifacts since the last merge (v4).
        lower_artifacts: Vec<WireLowerArtifact>,
    },
    /// Server → client: exit cleanly.
    Shutdown,
    /// Server → client, once after a successful handshake: the
    /// embedder's job description — opaque bytes this crate never
    /// interprets (the BinTuner embedder ships the canonically encoded
    /// module to tune). Every BinTuner farm worker, thread or process,
    /// builds its local evaluation engine from it.
    Job {
        /// The embedder-defined job description.
        payload: Vec<u8>,
    },
    /// Server → client: liveness probe (v6). A healthy client answers
    /// with [`Frame::Pong`] echoing the nonce; a client that misses N
    /// consecutive probes is evicted like a dead client.
    Ping {
        /// Probe nonce, echoed verbatim in the answering Pong.
        nonce: u64,
    },
    /// Client → server: answer to [`Frame::Ping`] (v6).
    Pong {
        /// The nonce from the probe being answered.
        nonce: u64,
    },
}

/// Append one genome to `out` in the canonical wire encoding: a `u16`
/// length prefix, then the bools packed LSB-first into bytes.
///
/// Public so embedder-defined protocols layered over the same transports
/// (the BinTuner daemon's job frames) share one genome encoding.
pub fn put_genome(out: &mut Vec<u8>, genome: &[bool]) {
    debug_assert!(genome.len() <= usize::from(u16::MAX));
    out.put_u16_le(genome.len() as u16);
    let mut byte = 0u8;
    for (i, &on) in genome.iter().enumerate() {
        if on {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.put_u8(byte);
            byte = 0;
        }
    }
    if !genome.len().is_multiple_of(8) {
        out.put_u8(byte);
    }
}

/// Append one [`WireSpan`] in the canonical encoding: fixed fields,
/// then the name as a `u16`-length-prefixed UTF-8 string.
fn put_span(out: &mut Vec<u8>, span: &WireSpan) {
    out.put_u64_le(span.id);
    out.put_u64_le(span.parent);
    debug_assert!(span.name.len() <= usize::from(u16::MAX));
    out.put_u16_le(span.name.len() as u16);
    out.put_slice(span.name.as_bytes());
    out.put_u64_le(span.start_us);
    out.put_u64_le(span.dur_us);
}

/// Encode one frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::with_capacity(64);
    body.put_slice(&WIRE_MAGIC);
    body.put_u32_le(WIRE_VERSION);
    match frame {
        Frame::Hello { client, n_flags } => {
            body.put_u8(TAG_HELLO);
            body.put_u32_le(*client);
            body.put_u16_le(*n_flags);
        }
        Frame::Work {
            shard,
            span,
            genomes,
        } => {
            body.put_u8(TAG_WORK);
            body.put_u64_le(*shard);
            body.put_u64_le(*span);
            body.put_u32_le(genomes.len() as u32);
            for g in genomes {
                put_genome(&mut body, g);
            }
        }
        Frame::Result {
            shard,
            client,
            evals,
            stats,
            spans,
        } => {
            body.put_u8(TAG_RESULT);
            body.put_u64_le(*shard);
            body.put_u32_le(*client);
            body.put_u32_le(stats.compiles);
            body.put_u32_le(stats.cache_hits);
            body.put_u32_le(stats.full_compiles);
            body.put_u32_le(stats.ast_reuse);
            body.put_u32_le(stats.lower_reuse);
            body.put_u64_le(stats.wall_seconds.to_bits());
            body.put_u64_le(stats.span);
            body.put_u32_le(evals.len() as u32);
            for e in evals {
                body.put_u64_le(e.fitness_bits);
                body.put_u8(e.failed as u8);
                body.put_u64_le(e.wall_seconds_bits);
            }
            body.put_u32_le(spans.len() as u32);
            for s in spans {
                put_span(&mut body, s);
            }
        }
        Frame::EndBatch { batch } => {
            body.put_u8(TAG_END_BATCH);
            body.put_u64_le(*batch);
        }
        Frame::Merge {
            client,
            records,
            ast_artifacts,
            lower_artifacts,
        } => {
            body.put_u8(TAG_MERGE);
            body.put_u32_le(*client);
            body.put_u32_le(records.len() as u32);
            for r in records {
                body.put_u64_le(r.module_hash);
                body.put_u8(r.compiler);
                body.put_u8(r.arch);
                body.put_u64_le((r.effect_digest >> 64) as u64);
                body.put_u64_le(r.effect_digest as u64);
                body.put_u64_le(r.fitness_bits);
                body.put_u8(r.failed as u8);
                put_genome(&mut body, &r.flags);
            }
            body.put_u32_le(ast_artifacts.len() as u32);
            for a in ast_artifacts {
                body.put_u64_le(a.body_hash);
                body.put_u8(a.compiler);
                body.put_u64_le((a.ast_digest >> 64) as u64);
                body.put_u64_le(a.ast_digest as u64);
                body.put_u64_le(a.cost_bits);
                body.put_u32_le(a.blob.len() as u32);
                body.put_slice(&a.blob);
            }
            body.put_u32_le(lower_artifacts.len() as u32);
            for a in lower_artifacts {
                body.put_u64_le(a.body_hash);
                body.put_u8(a.compiler);
                body.put_u8(a.arch);
                body.put_u64_le((a.ast_digest >> 64) as u64);
                body.put_u64_le(a.ast_digest as u64);
                body.put_u64_le((a.lower_digest >> 64) as u64);
                body.put_u64_le(a.lower_digest as u64);
                body.put_u64_le(a.cost_bits);
                body.put_u32_le(a.blob.len() as u32);
                body.put_slice(&a.blob);
            }
        }
        Frame::Shutdown => body.put_u8(TAG_SHUTDOWN),
        Frame::Job { payload } => {
            body.put_u8(TAG_JOB);
            body.put_u32_le(payload.len() as u32);
            body.put_slice(payload);
        }
        Frame::Ping { nonce } => {
            body.put_u8(TAG_PING);
            body.put_u64_le(*nonce);
        }
        Frame::Pong { nonce } => {
            body.put_u8(TAG_PONG);
            body.put_u64_le(*nonce);
        }
    }
    let ck = checksum(&body);
    body.put_u32_le(ck);
    let mut out = Vec::with_capacity(4 + body.len());
    out.put_u32_le(body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// Bounds-checked cursor over a frame payload (decoding must reject
/// malformed bytes, never panic).
///
/// Public so embedder-defined protocols layered over the same transports
/// (the BinTuner daemon's job frames) get the same never-panic decoding
/// discipline without re-deriving it.
pub struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// Start a cursor at the head of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, off: 0 }
    }

    /// Consume the next `n` bytes, or reject the payload as short.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], EvaldError> {
        if self.off + n > self.buf.len() {
            return Err(EvaldError::Corrupt("payload shorter than its fields"));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, EvaldError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, EvaldError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, EvaldError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, EvaldError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a `u128` encoded as high then low `u64` halves.
    pub fn u128(&mut self) -> Result<u128, EvaldError> {
        let hi = self.u64()?;
        let lo = self.u64()?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Consume a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, EvaldError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Consume one genome in the [`put_genome`] encoding.
    pub fn genome(&mut self) -> Result<Vec<bool>, EvaldError> {
        let n = usize::from(self.u16()?);
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    /// Consume one [`WireSpan`] in the [`put_span`] encoding. A name
    /// that is not valid UTF-8 rejects the payload as corrupt.
    fn span(&mut self) -> Result<WireSpan, EvaldError> {
        let id = self.u64()?;
        let parent = self.u64()?;
        let n = usize::from(self.u16()?);
        let name = std::str::from_utf8(self.take(n)?)
            .map_err(|_| EvaldError::Corrupt("span name is not UTF-8"))?
            .to_string();
        Ok(WireSpan {
            id,
            parent,
            name,
            start_us: self.u64()?,
            dur_us: self.u64()?,
        })
    }

    /// Require the payload to be fully consumed.
    pub fn done(&self) -> Result<(), EvaldError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(EvaldError::Corrupt("trailing bytes after payload"))
        }
    }
}

/// Decode one frame from the head of `buf`, returning it together with
/// the number of bytes consumed (so stream transports can decode from an
/// accumulation buffer).
///
/// # Errors
///
/// [`EvaldError::Truncated`] when `buf` holds less than one whole frame;
/// [`EvaldError::BadMagic`] / [`EvaldError::VersionMismatch`] /
/// [`EvaldError::Corrupt`] when the frame cannot be trusted.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), EvaldError> {
    if buf.len() < 4 {
        return Err(EvaldError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(EvaldError::Corrupt("frame length exceeds the cap"));
    }
    // Smallest body: magic + version + tag + checksum.
    if len < 4 + 4 + 1 + 4 {
        return Err(EvaldError::Corrupt("frame shorter than its fixed header"));
    }
    let total = 4 + len;
    if buf.len() < total {
        return Err(EvaldError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let body = &buf[4..total];
    if body[..4] != WIRE_MAGIC {
        return Err(EvaldError::BadMagic);
    }
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(EvaldError::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let (payload, ck_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes(ck_bytes.try_into().unwrap());
    if checksum(payload) != stored {
        return Err(EvaldError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(&payload[9..]); // past magic+version+tag
    let frame = match payload[8] {
        TAG_HELLO => Frame::Hello {
            client: r.u32()?,
            n_flags: r.u16()?,
        },
        TAG_WORK => {
            let shard = r.u64()?;
            let span = r.u64()?;
            let n = r.u32()? as usize;
            let mut genomes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                genomes.push(r.genome()?);
            }
            Frame::Work {
                shard,
                span,
                genomes,
            }
        }
        TAG_RESULT => {
            let shard = r.u64()?;
            let client = r.u32()?;
            let stats = ShardStats {
                compiles: r.u32()?,
                cache_hits: r.u32()?,
                full_compiles: r.u32()?,
                ast_reuse: r.u32()?,
                lower_reuse: r.u32()?,
                wall_seconds: f64::from_bits(r.u64()?),
                span: r.u64()?,
            };
            let n = r.u32()? as usize;
            let mut evals = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                evals.push(WireEval {
                    fitness_bits: r.u64()?,
                    failed: r.u8()? != 0,
                    wall_seconds_bits: r.u64()?,
                });
            }
            let n = r.u32()? as usize;
            let mut spans = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                spans.push(r.span()?);
            }
            Frame::Result {
                shard,
                client,
                evals,
                stats,
                spans,
            }
        }
        TAG_END_BATCH => Frame::EndBatch { batch: r.u64()? },
        TAG_MERGE => {
            let client = r.u32()?;
            let n = r.u32()? as usize;
            let mut records = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                records.push(MergeRecord {
                    module_hash: r.u64()?,
                    compiler: r.u8()?,
                    arch: r.u8()?,
                    effect_digest: r.u128()?,
                    fitness_bits: r.u64()?,
                    failed: r.u8()? != 0,
                    flags: r.genome()?,
                });
            }
            let n = r.u32()? as usize;
            let mut ast_artifacts = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ast_artifacts.push(WireAstArtifact {
                    body_hash: r.u64()?,
                    compiler: r.u8()?,
                    ast_digest: r.u128()?,
                    cost_bits: r.u64()?,
                    blob: r.bytes()?,
                });
            }
            let n = r.u32()? as usize;
            let mut lower_artifacts = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                lower_artifacts.push(WireLowerArtifact {
                    body_hash: r.u64()?,
                    compiler: r.u8()?,
                    arch: r.u8()?,
                    ast_digest: r.u128()?,
                    lower_digest: r.u128()?,
                    cost_bits: r.u64()?,
                    blob: r.bytes()?,
                });
            }
            Frame::Merge {
                client,
                records,
                ast_artifacts,
                lower_artifacts,
            }
        }
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_JOB => {
            let n = r.u32()? as usize;
            Frame::Job {
                payload: r.take(n)?.to_vec(),
            }
        }
        TAG_PING => Frame::Ping { nonce: r.u64()? },
        TAG_PONG => Frame::Pong { nonce: r.u64()? },
        _ => return Err(EvaldError::Corrupt("unknown frame tag")),
    };
    r.done()?;
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                client: 3,
                n_flags: 137,
            },
            Frame::Work {
                shard: 42,
                span: 9001,
                genomes: vec![
                    vec![true, false, true],
                    vec![],
                    (0..137).map(|i| i % 3 == 0).collect(),
                ],
            },
            Frame::Result {
                shard: 42,
                client: 3,
                evals: vec![
                    WireEval {
                        fitness_bits: 0.731f64.to_bits(),
                        failed: false,
                        wall_seconds_bits: 0.001f64.to_bits(),
                    },
                    WireEval {
                        fitness_bits: (-1.0f64).to_bits(),
                        failed: true,
                        wall_seconds_bits: 0u64,
                    },
                ],
                stats: ShardStats {
                    compiles: 2,
                    cache_hits: 0,
                    full_compiles: 1,
                    ast_reuse: 1,
                    lower_reuse: 0,
                    wall_seconds: 0.002,
                    span: 9001,
                },
                spans: vec![
                    WireSpan {
                        id: (4u64 << 48) + 1,
                        parent: 9001,
                        name: "ast".to_string(),
                        start_us: 12,
                        dur_us: 340,
                    },
                    WireSpan {
                        id: (4u64 << 48) + 2,
                        parent: (4u64 << 48) + 1,
                        name: String::new(),
                        start_us: 0,
                        dur_us: u64::MAX,
                    },
                ],
            },
            // Tracing off: span context zero, no spans — still a valid
            // v5 frame with explicit zero counts.
            Frame::Result {
                shard: 43,
                client: 0,
                evals: vec![],
                stats: ShardStats::default(),
                spans: vec![],
            },
            Frame::EndBatch { batch: 7 },
            Frame::Merge {
                client: 1,
                records: vec![MergeRecord {
                    module_hash: 0xDEAD_BEEF,
                    compiler: 0,
                    arch: 1,
                    effect_digest: (u128::from(u64::MAX) << 64) | 0x1234,
                    fitness_bits: 0.5f64.to_bits(),
                    failed: false,
                    flags: vec![true; 9],
                }],
                ast_artifacts: vec![WireAstArtifact {
                    body_hash: 0xDEAD_BEEF,
                    compiler: 0,
                    ast_digest: u128::MAX - 7,
                    cost_bits: 0.25f64.to_bits(),
                    blob: vec![0x5A; 17],
                }],
                lower_artifacts: vec![WireLowerArtifact {
                    body_hash: 0xDEAD_BEEF,
                    compiler: 0,
                    arch: 1,
                    ast_digest: u128::MAX - 7,
                    lower_digest: 0x0123_4567_89AB_CDEF,
                    cost_bits: 0.125f64.to_bits(),
                    blob: vec![],
                }],
            },
            // Empty merge: the artifact lists must encode (and decode)
            // as explicit zero counts, not be elided.
            Frame::Merge {
                client: 0,
                records: vec![],
                ast_artifacts: vec![],
                lower_artifacts: vec![],
            },
            Frame::Shutdown,
            Frame::Job {
                payload: vec![0xAB; 33],
            },
            Frame::Ping { nonce: 0xFEED },
            Frame::Pong { nonce: u64::MAX },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let frames = sample_frames();
        let mut stream: Vec<u8> = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut off = 0;
        for expected in &frames {
            let (got, used) = decode_frame(&stream[off..]).expect("frame in stream");
            assert_eq!(&got, expected);
            off += used;
        }
        assert_eq!(off, stream.len());
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected_not_misread() {
        let bytes = encode_frame(&sample_frames()[1]);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(EvaldError::Truncated { needed, got }) => {
                    assert!(needed > got, "needed {needed} got {got}");
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        // The version field sits right after the length prefix + magic.
        bytes[8] = WIRE_VERSION as u8 + 1;
        match decode_frame(&bytes) {
            Err(EvaldError::VersionMismatch { got, want }) => {
                assert_eq!(got, WIRE_VERSION + 1);
                assert_eq!(want, WIRE_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let good = encode_frame(&sample_frames()[2]);
        // Flip a payload byte: checksum must catch it.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            decode_frame(&flipped),
            Err(EvaldError::Corrupt(_) | EvaldError::BadMagic | EvaldError::VersionMismatch { .. })
        ));
        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[4] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(EvaldError::BadMagic)
        ));
        // Oversized declared length.
        let mut huge = good;
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn shard_stats_equality_is_bitwise_over_wall_time() {
        // NaN != NaN under f64 equality; telemetry equality must not
        // care (the wire carries raw bits, and round-trip assertions
        // compare whole frames).
        let nan = ShardStats {
            wall_seconds: f64::NAN,
            ..ShardStats::default()
        };
        assert_eq!(nan, nan);
        let frame = Frame::Result {
            shard: 1,
            client: 0,
            evals: vec![],
            stats: nan,
            spans: vec![],
        };
        let (decoded, _) = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(decoded, frame);
        // −0.0 == +0.0 as f64s, but they are different measurements on
        // the wire: bitwise equality distinguishes them.
        let pos = ShardStats {
            wall_seconds: 0.0,
            ..ShardStats::default()
        };
        let neg = ShardStats {
            wall_seconds: -0.0,
            ..ShardStats::default()
        };
        assert_ne!(pos, neg);
        assert_eq!(pos, pos);
    }

    #[test]
    fn job_payload_is_opaque_bytes() {
        for payload in [vec![], vec![0u8], (0..=255u8).collect::<Vec<u8>>()] {
            let frame = Frame::Job {
                payload: payload.clone(),
            };
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
        // A declared payload length past the frame end is corrupt, not a
        // panic — even with a valid checksum over the lying bytes.
        let mut bytes = encode_frame(&Frame::Job {
            payload: vec![7; 4],
        });
        // Payload length field sits after len(4)+magic(4)+version(4)+tag(1).
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let ck_at = bytes.len() - 4;
        let ck = checksum(&bytes[4..ck_at]);
        bytes[ck_at..].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn span_names_must_be_utf8() {
        let frame = Frame::Result {
            shard: 5,
            client: 1,
            evals: vec![],
            stats: ShardStats::default(),
            spans: vec![WireSpan {
                id: 1,
                parent: 0,
                name: "mir".to_string(),
                start_us: 7,
                dur_us: 8,
            }],
        };
        let mut bytes = encode_frame(&frame);
        // The span name's bytes are the only "mir" in the frame; smash
        // them with invalid UTF-8 and re-seal the checksum: the decoder
        // must reject the payload, not panic or mojibake.
        let pos = bytes
            .windows(3)
            .position(|w| w == b"mir")
            .expect("name bytes present");
        bytes[pos] = 0xFF;
        bytes[pos + 1] = 0xFE;
        let ck_at = bytes.len() - 4;
        let ck = checksum(&bytes[4..ck_at]);
        bytes[ck_at..].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn result_spans_round_trip_with_extreme_values() {
        let frame = Frame::Result {
            shard: u64::MAX,
            client: u32::MAX,
            evals: vec![WireEval {
                fitness_bits: f64::NAN.to_bits(),
                failed: true,
                wall_seconds_bits: f64::NEG_INFINITY.to_bits(),
            }],
            stats: ShardStats {
                wall_seconds: f64::INFINITY,
                span: u64::MAX,
                ..ShardStats::default()
            },
            spans: vec![WireSpan {
                id: u64::MAX,
                parent: u64::MAX - 1,
                name: "a".repeat(300),
                start_us: u64::MAX,
                dur_us: 0,
            }],
        };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
        // Truncation inside the span block is detected at every cut.
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(EvaldError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn genome_bitmap_edges() {
        for width in [0usize, 1, 7, 8, 9, 16, 137] {
            let genome: Vec<bool> = (0..width).map(|i| i % 2 == 0).collect();
            let frame = Frame::Work {
                shard: 1,
                span: 0,
                genomes: vec![genome.clone()],
            };
            let (decoded, _) = decode_frame(&encode_frame(&frame)).unwrap();
            match decoded {
                Frame::Work { genomes, .. } => assert_eq!(genomes[0], genome),
                _ => unreachable!(),
            }
        }
    }
}
