//! The daemon's client-facing wire format.
//!
//! Same discipline as `evald::wire`, same physical framing — so the
//! daemon reuses the evald stream transports unchanged — but its own
//! magic and version: the job-control plane and the farm data plane
//! evolve independently, and a worker accidentally pointed at a daemon
//! socket (or vice versa) is rejected by magic, not misparsed.
//!
//! ```text
//! [len: u32]                        length of everything after this field
//! [magic: "TUND"][version: u32]     format identification, checked per frame
//! [tag: u8][payload ...]            canonical little-endian
//! [checksum: u32]                   FNV-1a over magic..payload
//! ```
//!
//! Floats cross as raw bits ([`f64::to_bits`]): a fetched result must
//! be *bit-identical* to the solo-run `TuneResult`, checksum included.

use bytes::BufMut;
use evald::wire::{put_genome, Reader};
use evald::EvaldError;
use genetic::StopReason;
use minicc::fnv1a32 as checksum;

/// Frame magic: `TUND`.
pub const DAEMON_MAGIC: [u8; 4] = *b"TUND";

/// Daemon wire-format version; bump on any layout change.
///
/// History: v1 job control + MetricsSnapshot; v2 added the btel
/// exposition frames (`MetricsText`/`TraceDump`); v3 added
/// `Submit::deadline_ms`, [`JobState::DeadlineExceeded`] and
/// [`RejectCode::BadDeadline`]; v4 retired the typed snapshot frames
/// (tags 9–10) — the `MetricsText` exposition of the daemon's registry
/// is the one metrics read over the wire.
pub const DAEMON_WIRE_VERSION: u32 = 4;

/// Frame length cap, shared with the farm wire (one transport stack).
pub const MAX_FRAME_LEN: usize = evald::wire::MAX_FRAME_LEN;

const TAG_SUBMIT: u8 = 0;
const TAG_ACCEPTED: u8 = 1;
const TAG_REJECTED: u8 = 2;
const TAG_STATUS: u8 = 3;
const TAG_STATUS_REPLY: u8 = 4;
const TAG_CANCEL: u8 = 5;
const TAG_CANCEL_REPLY: u8 = 6;
const TAG_FETCH_RESULT: u8 = 7;
const TAG_RESULT_REPLY: u8 = 8;
const TAG_METRICS_TEXT: u8 = 11;
const TAG_METRICS_TEXT_REPLY: u8 = 12;
const TAG_TRACE_DUMP: u8 = 13;
const TAG_TRACE_DUMP_REPLY: u8 = 14;

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The bounded admission queue is full — resubmit later. Typed so
    /// clients can distinguish back-pressure from a broken request.
    QueueFull,
    /// The daemon is shutting down.
    ShuttingDown,
    /// The submitted module bytes failed to decode.
    BadModule,
    /// The submitted deadline is unusable (beyond the daemon's cap) —
    /// typed so a fat-fingered deadline reads as a request bug, not
    /// back-pressure.
    BadDeadline,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::QueueFull => 0,
            RejectCode::ShuttingDown => 1,
            RejectCode::BadModule => 2,
            RejectCode::BadDeadline => 3,
        }
    }

    fn from_u8(b: u8) -> Result<RejectCode, EvaldError> {
        Ok(match b {
            0 => RejectCode::QueueFull,
            1 => RejectCode::ShuttingDown,
            2 => RejectCode::BadModule,
            3 => RejectCode::BadDeadline,
            _ => return Err(EvaldError::Corrupt("unknown reject code")),
        })
    }
}

/// A job's lifecycle state as reported by Status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a runner.
    Queued,
    /// Executing on a runner.
    Running,
    /// Finished with a result (fetch it).
    Done,
    /// Finished with an error (fetch carries the message).
    Failed,
    /// Cancelled — while queued, or while running (the cancel flag is
    /// observed between evaluation batches).
    Cancelled,
    /// The daemon has no such job id.
    Unknown,
    /// Aborted because its submit-time wall-clock deadline passed
    /// before it finished.
    DeadlineExceeded,
}

impl JobState {
    fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
            JobState::Unknown => 5,
            JobState::DeadlineExceeded => 6,
        }
    }

    fn from_u8(b: u8) -> Result<JobState, EvaldError> {
        Ok(match b {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            5 => JobState::Unknown,
            6 => JobState::DeadlineExceeded,
            _ => return Err(EvaldError::Corrupt("unknown job state")),
        })
    }
}

/// The trajectory-defining fields of a completed job's `TuneResult`,
/// plus the cache telemetry the duplicate-submission differential
/// asserts on. Fitness travels as raw bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTuneOutcome {
    /// Best (constraint-valid) flag vector.
    pub best_flags: Vec<bool>,
    /// `f64::to_bits` of the best NCD.
    pub best_ncd_bits: u64,
    /// Compilation iterations performed.
    pub iterations: u64,
    /// Why the search stopped.
    pub stopped_by: StopReason,
    /// Real compiles the job performed (0 for a pure duplicate hit).
    pub compiles: u64,
    /// Persistent fitness-store hits.
    pub persistent_hits: u64,
    /// Persistent AST-artifact hits.
    pub store_ast_hits: u64,
    /// Persistent lowered-binary-artifact hits.
    pub store_lower_hits: u64,
}

fn stop_reason_to_u8(s: StopReason) -> u8 {
    match s {
        StopReason::MaxEvaluations => 0,
        StopReason::TimeBudget => 1,
        StopReason::Plateau => 2,
    }
}

fn stop_reason_from_u8(b: u8) -> Result<StopReason, EvaldError> {
    Ok(match b {
        0 => StopReason::MaxEvaluations,
        1 => StopReason::TimeBudget,
        2 => StopReason::Plateau,
        _ => return Err(EvaldError::Corrupt("unknown stop reason")),
    })
}

/// One daemon-protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonFrame {
    /// Client → daemon: run a tuning job.
    Submit {
        /// Free-form tenant name (per-tenant metrics key).
        tenant: String,
        /// `minicc::codec::encode_module` bytes of the module to tune.
        module: Vec<u8>,
        /// GA seed.
        seed: u64,
        /// Evaluation budget (`Termination::max_evaluations`).
        max_evaluations: u64,
        /// Population-level dedup flag.
        dedup: bool,
        /// Wall-clock deadline in milliseconds from submission; `0`
        /// means no deadline. A running job that blows it is aborted
        /// between evaluation batches with
        /// [`JobState::DeadlineExceeded`].
        deadline_ms: u64,
    },
    /// Daemon → client: admitted; poll/fetch with this id.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// Daemon → client: refused at admission.
    Rejected {
        /// Typed reason.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Client → daemon: query a job's state.
    Status {
        /// The job id.
        job: u64,
    },
    /// Daemon → client: the job's state plus queue telemetry.
    StatusReply {
        /// The job id echoed.
        job: u64,
        /// Lifecycle state.
        state: JobState,
        /// Jobs waiting in the admission queue.
        queue_depth: u64,
        /// Jobs currently running.
        running: u64,
    },
    /// Client → daemon: cancel a job. A queued job is dequeued and
    /// settled immediately; a running job aborts at its next
    /// evaluation-batch checkpoint.
    Cancel {
        /// The job id.
        job: u64,
    },
    /// Daemon → client: whether the cancel landed.
    CancelReply {
        /// The job id echoed.
        job: u64,
        /// `true` iff the job was queued (now cancelled) or running
        /// (cancellation latched); `false` for terminal/unknown jobs.
        cancelled: bool,
    },
    /// Client → daemon: block until the job reaches a terminal state,
    /// then return its outcome.
    FetchResult {
        /// The job id.
        job: u64,
    },
    /// Daemon → client: the terminal outcome.
    ResultReply {
        /// The job id echoed.
        job: u64,
        /// `Ok` for Done, `Err(message)` for Failed/Cancelled/Unknown.
        outcome: Result<WireTuneOutcome, String>,
    },
    /// Client → daemon: request the Prometheus-style text exposition of
    /// the daemon's btel registry (what `bintuner metrics` renders).
    MetricsText,
    /// Daemon → client: the rendered exposition.
    MetricsTextReply {
        /// `btel::Registry::render_text` output, UTF-8.
        text: String,
    },
    /// Client → daemon: request the recent trace spans.
    TraceDump,
    /// Daemon → client: the spans as JSONL (one span object per line).
    TraceDumpReply {
        /// `btel::spans_to_jsonl` output, UTF-8.
        jsonl: String,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, EvaldError> {
    String::from_utf8(r.bytes()?).map_err(|_| EvaldError::Corrupt("string is not UTF-8"))
}

/// Encode one daemon frame, length prefix included — ready for any
/// `evald::transport` sender.
pub fn encode_daemon_frame(frame: &DaemonFrame) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::with_capacity(64);
    body.put_slice(&DAEMON_MAGIC);
    body.put_u32_le(DAEMON_WIRE_VERSION);
    match frame {
        DaemonFrame::Submit {
            tenant,
            module,
            seed,
            max_evaluations,
            dedup,
            deadline_ms,
        } => {
            body.put_u8(TAG_SUBMIT);
            put_str(&mut body, tenant);
            body.put_u32_le(module.len() as u32);
            body.put_slice(module);
            body.put_u64_le(*seed);
            body.put_u64_le(*max_evaluations);
            body.put_u8(u8::from(*dedup));
            body.put_u64_le(*deadline_ms);
        }
        DaemonFrame::Accepted { job } => {
            body.put_u8(TAG_ACCEPTED);
            body.put_u64_le(*job);
        }
        DaemonFrame::Rejected { code, detail } => {
            body.put_u8(TAG_REJECTED);
            body.put_u8(code.to_u8());
            put_str(&mut body, detail);
        }
        DaemonFrame::Status { job } => {
            body.put_u8(TAG_STATUS);
            body.put_u64_le(*job);
        }
        DaemonFrame::StatusReply {
            job,
            state,
            queue_depth,
            running,
        } => {
            body.put_u8(TAG_STATUS_REPLY);
            body.put_u64_le(*job);
            body.put_u8(state.to_u8());
            body.put_u64_le(*queue_depth);
            body.put_u64_le(*running);
        }
        DaemonFrame::Cancel { job } => {
            body.put_u8(TAG_CANCEL);
            body.put_u64_le(*job);
        }
        DaemonFrame::CancelReply { job, cancelled } => {
            body.put_u8(TAG_CANCEL_REPLY);
            body.put_u64_le(*job);
            body.put_u8(u8::from(*cancelled));
        }
        DaemonFrame::FetchResult { job } => {
            body.put_u8(TAG_FETCH_RESULT);
            body.put_u64_le(*job);
        }
        DaemonFrame::ResultReply { job, outcome } => {
            body.put_u8(TAG_RESULT_REPLY);
            body.put_u64_le(*job);
            match outcome {
                Ok(o) => {
                    body.put_u8(1);
                    put_genome(&mut body, &o.best_flags);
                    body.put_u64_le(o.best_ncd_bits);
                    body.put_u64_le(o.iterations);
                    body.put_u8(stop_reason_to_u8(o.stopped_by));
                    body.put_u64_le(o.compiles);
                    body.put_u64_le(o.persistent_hits);
                    body.put_u64_le(o.store_ast_hits);
                    body.put_u64_le(o.store_lower_hits);
                }
                Err(message) => {
                    body.put_u8(0);
                    put_str(&mut body, message);
                }
            }
        }
        DaemonFrame::MetricsText => {
            body.put_u8(TAG_METRICS_TEXT);
        }
        DaemonFrame::MetricsTextReply { text } => {
            body.put_u8(TAG_METRICS_TEXT_REPLY);
            put_str(&mut body, text);
        }
        DaemonFrame::TraceDump => {
            body.put_u8(TAG_TRACE_DUMP);
        }
        DaemonFrame::TraceDumpReply { jsonl } => {
            body.put_u8(TAG_TRACE_DUMP_REPLY);
            put_str(&mut body, jsonl);
        }
    }
    let ck = checksum(&body);
    let mut out = Vec::with_capacity(4 + body.len() + 4);
    out.put_u32_le((body.len() + 4) as u32);
    out.put_slice(&body);
    out.put_u32_le(ck);
    out
}

/// Decode one daemon frame from the head of `buf`, returning it with
/// the byte count consumed.
///
/// # Errors
///
/// As `evald::wire::decode_frame`: `Truncated` for a partial frame,
/// `BadMagic` / `VersionMismatch` / `Corrupt` for frames that cannot be
/// trusted.
pub fn decode_daemon_frame(buf: &[u8]) -> Result<(DaemonFrame, usize), EvaldError> {
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
    if body[..4] != DAEMON_MAGIC {
        return Err(EvaldError::BadMagic);
    }
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if version != DAEMON_WIRE_VERSION {
        return Err(EvaldError::VersionMismatch {
            got: version,
            want: DAEMON_WIRE_VERSION,
        });
    }
    let (payload, ck_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes(ck_bytes.try_into().unwrap());
    if checksum(payload) != stored {
        return Err(EvaldError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(&payload[9..]); // past magic+version+tag
    let frame = match payload[8] {
        TAG_SUBMIT => {
            let tenant = read_str(&mut r)?;
            let module = r.bytes()?;
            DaemonFrame::Submit {
                tenant,
                module,
                seed: r.u64()?,
                max_evaluations: r.u64()?,
                dedup: r.u8()? != 0,
                deadline_ms: r.u64()?,
            }
        }
        TAG_ACCEPTED => DaemonFrame::Accepted { job: r.u64()? },
        TAG_REJECTED => DaemonFrame::Rejected {
            code: RejectCode::from_u8(r.u8()?)?,
            detail: read_str(&mut r)?,
        },
        TAG_STATUS => DaemonFrame::Status { job: r.u64()? },
        TAG_STATUS_REPLY => DaemonFrame::StatusReply {
            job: r.u64()?,
            state: JobState::from_u8(r.u8()?)?,
            queue_depth: r.u64()?,
            running: r.u64()?,
        },
        TAG_CANCEL => DaemonFrame::Cancel { job: r.u64()? },
        TAG_CANCEL_REPLY => DaemonFrame::CancelReply {
            job: r.u64()?,
            cancelled: r.u8()? != 0,
        },
        TAG_FETCH_RESULT => DaemonFrame::FetchResult { job: r.u64()? },
        TAG_RESULT_REPLY => {
            let job = r.u64()?;
            let outcome = match r.u8()? {
                1 => Ok(WireTuneOutcome {
                    best_flags: r.genome()?,
                    best_ncd_bits: r.u64()?,
                    iterations: r.u64()?,
                    stopped_by: stop_reason_from_u8(r.u8()?)?,
                    compiles: r.u64()?,
                    persistent_hits: r.u64()?,
                    store_ast_hits: r.u64()?,
                    store_lower_hits: r.u64()?,
                }),
                0 => Err(read_str(&mut r)?),
                _ => return Err(EvaldError::Corrupt("outcome tag out of range")),
            };
            DaemonFrame::ResultReply { job, outcome }
        }
        TAG_METRICS_TEXT => DaemonFrame::MetricsText,
        TAG_METRICS_TEXT_REPLY => DaemonFrame::MetricsTextReply {
            text: read_str(&mut r)?,
        },
        TAG_TRACE_DUMP => DaemonFrame::TraceDump,
        TAG_TRACE_DUMP_REPLY => DaemonFrame::TraceDumpReply {
            jsonl: read_str(&mut r)?,
        },
        _ => return Err(EvaldError::Corrupt("unknown frame tag")),
    };
    r.done()?;
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<DaemonFrame> {
        vec![
            DaemonFrame::Submit {
                tenant: "ci".into(),
                module: vec![1, 2, 3, 255],
                seed: 0xB147,
                max_evaluations: 90,
                dedup: true,
                deadline_ms: 0,
            },
            DaemonFrame::Submit {
                tenant: "batch".into(),
                module: vec![9],
                seed: 1,
                max_evaluations: 4,
                dedup: false,
                deadline_ms: 45_000,
            },
            DaemonFrame::Accepted { job: 7 },
            DaemonFrame::Rejected {
                code: RejectCode::QueueFull,
                detail: "queue full (4 waiting)".into(),
            },
            DaemonFrame::Rejected {
                code: RejectCode::BadDeadline,
                detail: "deadline beyond the daemon cap".into(),
            },
            DaemonFrame::Status { job: 7 },
            DaemonFrame::StatusReply {
                job: 7,
                state: JobState::Running,
                queue_depth: 3,
                running: 2,
            },
            DaemonFrame::StatusReply {
                job: 11,
                state: JobState::DeadlineExceeded,
                queue_depth: 0,
                running: 1,
            },
            DaemonFrame::Cancel { job: 9 },
            DaemonFrame::CancelReply {
                job: 9,
                cancelled: false,
            },
            DaemonFrame::FetchResult { job: 7 },
            DaemonFrame::ResultReply {
                job: 7,
                outcome: Ok(WireTuneOutcome {
                    best_flags: vec![true, false, true, true],
                    best_ncd_bits: f64::to_bits(0.734),
                    iterations: 90,
                    stopped_by: StopReason::MaxEvaluations,
                    compiles: 0,
                    persistent_hits: 41,
                    store_ast_hits: 2,
                    store_lower_hits: 1,
                }),
            },
            DaemonFrame::ResultReply {
                job: 8,
                outcome: Err("evaluation service failed: no live clients".into()),
            },
            DaemonFrame::MetricsText,
            DaemonFrame::MetricsTextReply {
                text: "# TYPE bintuner_daemon_jobs_total counter\n\
                       bintuner_daemon_jobs_total{tenant=\"ci\"} 5\n"
                    .into(),
            },
            DaemonFrame::TraceDump,
            DaemonFrame::TraceDumpReply {
                jsonl: "{\"id\":1,\"parent\":0,\"name\":\"batch\",\
                        \"start_us\":10,\"dur_us\":42,\"client\":0}\n"
                    .into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_daemon_frame(&frame);
            let (decoded, used) = decode_daemon_frame(&bytes).expect("valid frame decodes");
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn truncation_version_magic_and_checksum_are_rejected() {
        let bytes = encode_daemon_frame(&DaemonFrame::Accepted { job: 3 });
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_daemon_frame(&bytes[..cut]),
                    Err(EvaldError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_daemon_frame(&wrong_version),
            Err(EvaldError::VersionMismatch { got: 99, want: 4 })
        ));
        // A v3 peer (which still speaks the typed Metrics frame) is told
        // exactly what the daemon speaks now, not misparsed.
        let mut v3 = bytes.clone();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_daemon_frame(&v3),
            Err(EvaldError::VersionMismatch { got: 3, want: 4 })
        ));
        // A farm frame sent to the daemon port: rejected by magic, not
        // misparsed (and symmetrically, TUND magic fails EVLD decode).
        let farm = evald::wire::encode_frame(&evald::wire::Frame::EndBatch { batch: 1 });
        assert!(matches!(
            decode_daemon_frame(&farm),
            Err(EvaldError::BadMagic)
        ));
        assert!(matches!(
            evald::wire::decode_frame(&bytes),
            Err(EvaldError::BadMagic)
        ));
        let mut corrupt = bytes;
        let last = corrupt.len() - 5; // inside the payload, before checksum
        corrupt[last] ^= 0xFF;
        assert!(matches!(
            decode_daemon_frame(&corrupt),
            Err(EvaldError::Corrupt(_))
        ));
    }
}
