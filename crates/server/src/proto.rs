//! Wire protocol: incremental frame decoding, request parsing, and
//! response shaping.
//!
//! The transport is line-delimited JSON, but the evented daemon reads raw
//! nonblocking byte chunks — a request may arrive one byte at a time
//! (slow-loris clients) or many requests in one read (pipelining clients).
//! [`FrameDecoder`] turns that byte stream back into frames: complete
//! lines, plus explicit [`Frame::Oversize`] markers when a line exceeds
//! the length cap (the offending bytes are discarded up to the next
//! newline and the client gets a per-line error response, not a dropped
//! connection).
//!
//! Requests may carry an `id` field (number or string); it is echoed in
//! the response so pipelining clients can match replies to requests.  The
//! `batch` command pipelines at the protocol level: its `requests` array
//! is executed in order on the session and produces exactly one response
//! line per sub-request, in request order.

use crate::json::Json;
use suif_parallel::MAX_CERTIFY_SCHEDULES;

/// Longest accepted request line, in bytes.  Large enough for any program
/// the analyzer would want in one `load` (the whole benchmark suite fits
/// in well under 1 MiB), small enough that a garbage or hostile stream
/// cannot balloon a connection's read buffer.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// One decoded frame from the byte stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A complete request line (without the trailing newline), decoded
    /// lossily from UTF-8 — [`Request::parse`] reports malformed JSON as a
    /// per-line error.
    Line(String),
    /// A line exceeded [`MAX_LINE_BYTES`]; `0` bytes of it were kept.  The
    /// payload is how many bytes were discarded (including any still
    /// uncounted when the terminating newline finally arrived).
    Oversize(usize),
}

/// Incremental line framer over a nonblocking byte stream.
///
/// Feed arbitrary chunks with [`FrameDecoder::feed`]; pull complete frames
/// with [`FrameDecoder::next_frame`].  A partial line stays buffered
/// across feeds (never lost, never served early).  Lines longer than the
/// cap flip the decoder into discard mode: bytes are dropped until the
/// next newline, then a single [`Frame::Oversize`] frame is emitted so the
/// daemon can answer with an error instead of silently swallowing input.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Byte cap per line.
    max: usize,
    /// In discard mode: bytes dropped so far of the oversize line.
    discarding: Option<usize>,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new(MAX_LINE_BYTES)
    }
}

impl FrameDecoder {
    /// A decoder enforcing `max_line` bytes per frame.
    pub fn new(max_line: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            max: max_line.max(1),
            discarding: None,
        }
    }

    /// Append freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if let Some(dropped) = &mut self.discarding {
            // Still inside an oversize line: drop up to (and excluding)
            // the terminating newline; keep the tail for normal framing.
            match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    *dropped += pos;
                    let rest = &bytes[pos..]; // keep the newline itself
                    self.buf.extend_from_slice(rest);
                }
                None => {
                    *dropped += bytes.len();
                }
            }
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Option<Frame> {
        if let Some(dropped) = self.discarding {
            // The oversize line terminates at the first buffered newline.
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                debug_assert_eq!(pos, 0, "discard mode keeps only the newline tail");
                self.buf.drain(..=pos);
                self.discarding = None;
                return Some(Frame::Oversize(dropped));
            }
            return None;
        }
        match self.buf.iter().position(|&b| b == b'\n') {
            // A whole oversize line can arrive before the first
            // `next_frame` call (one big read batch): the cap applies to
            // complete lines too, not just still-partial ones.
            Some(pos) if pos > self.max => {
                self.buf.drain(..=pos);
                Some(Frame::Oversize(pos))
            }
            Some(pos) => {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).trim().to_string();
                Some(Frame::Line(text))
            }
            None if self.buf.len() > self.max => {
                // No newline yet and already past the cap: discard what is
                // buffered and everything until the newline arrives.
                let dropped = self.buf.len();
                self.buf.clear();
                self.discarding = Some(dropped);
                None
            }
            None => None,
        }
    }

    /// Whether a partial (incomplete) line is buffered — used by shutdown
    /// to decide a connection has nothing more to answer.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.discarding.is_some()
    }

    /// Bytes currently buffered (cap-bounded by construction).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }
}

/// One sub-request of a `batch` command: the reply id it must be answered
/// under, and the parse outcome (a malformed element answers with an error
/// under its id without aborting the rest of the batch).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Echoed in the sub-response: the element's `id` field, defaulting to
    /// its zero-based index in the batch.
    pub id: Json,
    /// The parsed sub-request, or the per-element protocol error.
    pub req: Result<Box<Request>, ProtoError>,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Load a program from MiniF source text, replacing any current session.
    Load { text: String },
    /// Re-load edited source, re-analyzing only the dirty cone.
    Reload { text: String },
    /// Report per-loop parallelization verdicts.
    Analyze,
    /// Ranked Guru targets (coverage/granularity driven).
    Guru,
    /// Slice the dependences of one loop.
    Slice { loop_name: String },
    /// Check and apply a user assertion (an incremental invalidation event).
    Assert {
        loop_name: String,
        var: String,
        independent: bool,
    },
    /// Demand-driven advisories: contraction, decomposition, block splits.
    Advisory,
    /// Render the annotated code view.
    Codeview,
    /// Race-certify loops under adversarial schedules (all loops, or one
    /// named loop).
    Certify {
        loop_name: Option<String>,
        schedules: Option<u32>,
        seed: Option<u64>,
    },
    /// Fleet analysis: run many programs through the corpus driver over the
    /// service's shared fact tier (no session required).  Programs come
    /// inline (`programs: [{name, text}, …]`) or generated server-side
    /// (`gen: N` with optional `seed_base`).
    Corpus {
        /// Inline `(name, source)` entries.
        programs: Vec<(String, String)>,
        /// Generate this many seeded programs server-side.
        gen: usize,
        /// First seed of the generated range.
        seed_base: u64,
        /// Workers for the run's dedicated pool (`0` = default).
        workers: usize,
        /// Per-program source-size cap in bytes (`0` = default).
        max_program_bytes: usize,
    },
    /// Daemon statistics: pass timings and fact counters.
    Stats,
    /// Force a durable fact-snapshot write (requires `--persist-dir`).
    Checkpoint,
    /// Close the connection.
    Quit,
    /// Stop the whole daemon gracefully: checkpoint the shared fact tier,
    /// stop accepting connections, and drain in-flight sessions.
    Shutdown,
    /// Pipelined sub-requests, executed in order on this session; one
    /// response line per element, in request order, each tagged with the
    /// element's id.
    Batch { items: Vec<BatchItem> },
}

/// Protocol-level failure, reported to the client as an error response.
#[derive(Debug, Clone)]
pub struct ProtoError(pub String);

/// The request's `id` field, if it carries one a response can echo
/// (numbers and strings only — clients matching replies need a scalar).
pub fn request_id(v: &Json) -> Option<Json> {
    match v.get("id") {
        Some(id @ (Json::Num(_) | Json::Str(_))) => Some(id.clone()),
        _ => None,
    }
}

impl Request {
    /// The request's `cmd` name.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Reload { .. } => "reload",
            Request::Analyze => "analyze",
            Request::Guru => "guru",
            Request::Slice { .. } => "slice",
            Request::Assert { .. } => "assert",
            Request::Advisory => "advisory",
            Request::Codeview => "codeview",
            Request::Certify { .. } => "certify",
            Request::Corpus { .. } => "corpus",
            Request::Stats => "stats",
            Request::Checkpoint => "checkpoint",
            Request::Quit => "quit",
            Request::Shutdown => "shutdown",
            Request::Batch { .. } => "batch",
        }
    }

    /// Parse one line of client input.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line).map_err(|e| ProtoError(e.to_string()))?;
        Request::from_value(&v)
    }

    /// Parse an already-decoded JSON request value.
    pub fn from_value(v: &Json) -> Result<Request, ProtoError> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("missing string field \"cmd\"".into()))?;
        let text_field = |v: &Json| -> Result<String, ProtoError> {
            v.get("text")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtoError(format!("{cmd} requires string field \"text\"")))
        };
        match cmd {
            "load" => Ok(Request::Load {
                text: text_field(v)?,
            }),
            "reload" => Ok(Request::Reload {
                text: text_field(v)?,
            }),
            "analyze" => Ok(Request::Analyze),
            "guru" => Ok(Request::Guru),
            "slice" => {
                let loop_name = v
                    .get("loop")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ProtoError("slice requires string field \"loop\"".into()))?;
                Ok(Request::Slice { loop_name })
            }
            "assert" => {
                let field = |name: &str| -> Result<String, ProtoError> {
                    v.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| ProtoError(format!("assert requires string field {name:?}")))
                };
                let loop_name = field("loop")?;
                let var = field("var")?;
                let independent = match v.get("kind").and_then(Json::as_str) {
                    None | Some("private") => false,
                    Some("independent") => true,
                    Some(other) => {
                        return Err(ProtoError(format!(
                            "assert kind must be \"private\" or \"independent\", got {other:?}"
                        )))
                    }
                };
                Ok(Request::Assert {
                    loop_name,
                    var,
                    independent,
                })
            }
            "certify" => {
                let loop_name = v.get("loop").and_then(Json::as_str).map(str::to_string);
                let schedules = match v.get("schedules") {
                    Some(j) => Some(
                        j.as_i64()
                            .and_then(|s| u32::try_from(s).ok())
                            .filter(|s| (1..=MAX_CERTIFY_SCHEDULES).contains(s))
                            .ok_or_else(|| {
                                ProtoError(format!(
                                    "certify \"schedules\" must be a number from 1 to \
                                     {MAX_CERTIFY_SCHEDULES}"
                                ))
                            })?,
                    ),
                    None => None,
                };
                let seed =
                    match v.get("seed") {
                        Some(j) => Some(j.as_i64().map(|s| s as u64).ok_or_else(|| {
                            ProtoError("certify \"seed\" must be a number".into())
                        })?),
                        None => None,
                    };
                Ok(Request::Certify {
                    loop_name,
                    schedules,
                    seed,
                })
            }
            "corpus" => {
                let uint_field = |name: &str| -> Result<u64, ProtoError> {
                    match v.get(name) {
                        None => Ok(0),
                        Some(j) => {
                            j.as_i64()
                                .filter(|n| *n >= 0)
                                .map(|n| n as u64)
                                .ok_or_else(|| {
                                    ProtoError(format!(
                                        "corpus {name:?} must be a non-negative number"
                                    ))
                                })
                        }
                    }
                };
                let mut programs = Vec::new();
                if let Some(Json::Arr(elems)) = v.get("programs") {
                    for (i, p) in elems.iter().enumerate() {
                        let field = |name: &str| -> Result<String, ProtoError> {
                            p.get(name)
                                .and_then(Json::as_str)
                                .map(str::to_string)
                                .ok_or_else(|| {
                                    ProtoError(format!(
                                        "corpus programs[{i}] requires string field {name:?}"
                                    ))
                                })
                        };
                        programs.push((field("name")?, field("text")?));
                    }
                } else if v.get("programs").is_some() {
                    return Err(ProtoError("corpus \"programs\" must be an array".into()));
                }
                let gen = uint_field("gen")? as usize;
                if programs.is_empty() && gen == 0 {
                    return Err(ProtoError(
                        "corpus requires \"programs\" (non-empty array) or \"gen\" (count)".into(),
                    ));
                }
                Ok(Request::Corpus {
                    programs,
                    gen,
                    seed_base: uint_field("seed_base")?,
                    workers: uint_field("workers")? as usize,
                    max_program_bytes: uint_field("max_program_bytes")? as usize,
                })
            }
            "advisory" => Ok(Request::Advisory),
            "codeview" => Ok(Request::Codeview),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint),
            "quit" => Ok(Request::Quit),
            "shutdown" => Ok(Request::Shutdown),
            "batch" => {
                let elems = match v.get("requests") {
                    Some(Json::Arr(elems)) => elems,
                    _ => return Err(ProtoError("batch requires array field \"requests\"".into())),
                };
                if elems.is_empty() {
                    return Err(ProtoError("batch \"requests\" must be non-empty".into()));
                }
                let items = elems
                    .iter()
                    .enumerate()
                    .map(|(i, elem)| {
                        let id = request_id(elem).unwrap_or(Json::Num(i as f64));
                        let req = match Request::from_value(elem) {
                            Ok(Request::Batch { .. }) => {
                                Err(ProtoError("batch may not nest batch".into()))
                            }
                            Ok(r) => Ok(Box::new(r)),
                            Err(e) => Err(e),
                        };
                        BatchItem { id, req }
                    })
                    .collect();
                Ok(Request::Batch { items })
            }
            other => Err(ProtoError(format!("unknown cmd {other:?}"))),
        }
    }
}

/// Wrap a successful payload: `{"ok":true, ...payload}`.
pub fn ok_response(payload: Json) -> Json {
    match payload {
        Json::Obj(mut m) => {
            m.insert("ok".into(), Json::Bool(true));
            Json::Obj(m)
        }
        other => Json::obj([("ok", Json::Bool(true)), ("result", other)]),
    }
}

/// Wrap an error message: `{"ok":false,"error":msg}`.
pub fn err_response(msg: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands() {
        assert!(matches!(
            Request::parse(r#"{"cmd":"load","text":"program p\nend"}"#),
            Ok(Request::Load { .. })
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"slice","loop":"main:1"}"#),
            Ok(Request::Slice { .. })
        ));
        assert!(Request::parse(r#"{"cmd":"slice"}"#).is_err());
        assert!(matches!(
            Request::parse(r#"{"cmd":"assert","loop":"main/1","var":"a","kind":"independent"}"#),
            Ok(Request::Assert {
                independent: true,
                ..
            })
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"assert","loop":"main/1","var":"a"}"#),
            Ok(Request::Assert {
                independent: false,
                ..
            })
        ));
        assert!(Request::parse(r#"{"cmd":"assert","loop":"main/1"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"assert","loop":"l","var":"v","kind":"bogus"}"#).is_err());
        assert!(matches!(
            Request::parse(r#"{"cmd":"advisory"}"#),
            Ok(Request::Advisory)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"certify"}"#),
            Ok(Request::Certify {
                loop_name: None,
                schedules: None,
                seed: None,
            })
        ));
        match Request::parse(r#"{"cmd":"certify","loop":"main/1","schedules":8,"seed":42}"#) {
            Ok(Request::Certify {
                loop_name,
                schedules,
                seed,
            }) => {
                assert_eq!(loop_name.as_deref(), Some("main/1"));
                assert_eq!(schedules, Some(8));
                assert_eq!(seed, Some(42));
            }
            other => panic!("bad certify parse: {other:?}"),
        }
        // Outside 1..=MAX_CERTIFY_SCHEDULES: 2^32 once cast to zero
        // schedules, a race-free verdict without a run.
        let max = i64::from(MAX_CERTIFY_SCHEDULES);
        for bad in [0, -1, 1 << 32, (1 << 32) - 1, max + 1] {
            let line = format!(r#"{{"cmd":"certify","schedules":{bad}}}"#);
            let e = Request::parse(&line).expect_err(&line);
            assert!(e.0.contains("from 1 to 64"), "{line}: {}", e.0);
        }
        assert!(matches!(
            Request::parse(&format!(r#"{{"cmd":"certify","schedules":{max}}}"#)),
            Ok(Request::Certify {
                schedules: Some(64),
                ..
            })
        ));
        assert!(Request::parse(r#"{"cmd":"certify","seed":"x"}"#).is_err());
        assert!(matches!(
            Request::parse(r#"{"cmd":"checkpoint"}"#),
            Ok(Request::Checkpoint)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"cmd":"frobnicate"}"#).is_err());
    }

    #[test]
    fn decoder_reassembles_split_lines() {
        let mut d = FrameDecoder::new(1024);
        for b in b"{\"cmd\":\"stats\"}" {
            d.feed(&[*b]);
            assert_eq!(d.next_frame(), None, "no frame before the newline");
        }
        assert!(d.has_partial());
        d.feed(b"\n");
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"stats\"}".into()))
        );
        assert!(!d.has_partial());
    }

    #[test]
    fn decoder_splits_pipelined_chunk() {
        let mut d = FrameDecoder::default();
        d.feed(b"{\"cmd\":\"guru\"}\n{\"cmd\":\"stats\"}\n{\"cmd\":");
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"guru\"}".into()))
        );
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"stats\"}".into()))
        );
        assert_eq!(d.next_frame(), None);
        assert!(d.has_partial());
        d.feed(b"\"quit\"}\r\n");
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"quit\"}".into()))
        );
    }

    #[test]
    fn decoder_caps_oversize_lines() {
        let mut d = FrameDecoder::new(16);
        d.feed(&[b'x'; 40]);
        assert_eq!(d.next_frame(), None);
        d.feed(&[b'y'; 10]);
        assert_eq!(d.next_frame(), None);
        d.feed(b"zz\n{\"cmd\":\"stats\"}\n");
        assert_eq!(d.next_frame(), Some(Frame::Oversize(52)));
        // The stream recovers: the next line frames normally.
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"stats\"}".into()))
        );
        assert_eq!(d.next_frame(), None);
        assert!(!d.has_partial());
    }

    #[test]
    fn decoder_caps_complete_lines_arriving_in_one_batch() {
        // The whole oversize line (newline included) can be buffered
        // before the first next_frame() call; the cap still applies.
        let mut d = FrameDecoder::new(16);
        d.feed(b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n{\"cmd\":\"stats\"}\n");
        assert_eq!(d.next_frame(), Some(Frame::Oversize(32)));
        assert_eq!(
            d.next_frame(),
            Some(Frame::Line("{\"cmd\":\"stats\"}".into()))
        );
        assert_eq!(d.next_frame(), None);
    }

    #[test]
    fn parses_batch() {
        let req = Request::parse(
            r#"{"cmd":"batch","requests":[{"cmd":"guru","id":"g1"},{"cmd":"nope"},{"cmd":"stats"}]}"#,
        )
        .unwrap();
        match req {
            Request::Batch { items } => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].id, Json::str("g1"));
                assert!(matches!(items[0].req.as_deref(), Ok(Request::Guru)));
                assert_eq!(items[1].id, Json::Num(1.0));
                assert!(items[1].req.is_err(), "bad element is a per-item error");
                assert!(matches!(items[2].req.as_deref(), Ok(Request::Stats)));
            }
            other => panic!("bad batch parse: {other:?}"),
        }
        assert!(Request::parse(r#"{"cmd":"batch"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"batch","requests":[]}"#).is_err());
        assert!(Request::parse(
            r#"{"cmd":"batch","requests":[{"cmd":"batch","requests":[{"cmd":"stats"}]}]}"#
        )
        .map(|r| match r {
            Request::Batch { items } => items[0].req.is_err(),
            _ => false,
        })
        .unwrap_or(false));
    }

    #[test]
    fn extracts_request_ids() {
        let v = Json::parse(r#"{"cmd":"stats","id":7}"#).unwrap();
        assert_eq!(request_id(&v), Some(Json::Num(7.0)));
        let v = Json::parse(r#"{"cmd":"stats","id":"abc"}"#).unwrap();
        assert_eq!(request_id(&v), Some(Json::str("abc")));
        let v = Json::parse(r#"{"cmd":"stats","id":[1]}"#).unwrap();
        assert_eq!(request_id(&v), None);
        let v = Json::parse(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(request_id(&v), None);
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(Json::obj([("loops", Json::Arr(vec![]))]));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response("nope");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("nope"));
    }
}
