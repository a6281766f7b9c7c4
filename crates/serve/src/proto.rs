//! The wire protocol: length-prefixed JSON frames and their message kinds.
//!
//! A frame is one complete JSON object preceded by its byte length in
//! ASCII decimal and a single space, and followed by a newline:
//!
//! ```text
//! 45 {"tenant":"alice","type":"HELLO","version":1}\n
//! ```
//!
//! The length covers the JSON text only (not the prefix or the trailing
//! newline). The prefix lets a reader allocate exactly once and reject
//! oversized frames *before* buffering them; the newline keeps captures
//! human-readable (`nc` output is one frame per line). Every payload is an
//! object carrying a `"type"` member naming its kind; the kinds are closed
//! enums ([`RequestKind`], [`ResponseKind`]) so the docs-drift suite can
//! pin `SERVICE.md` against the exact wire vocabulary.
//!
//! JSON is produced and parsed by [`ramr_telemetry::json`] — the same
//! hand-rolled layer behind `--metrics-json` — so the server streams
//! reports in the format operators already ingest.

use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use ramr_telemetry::json::{self, Value};

/// The protocol version sent in `HELLO` / echoed in `WELCOME`.
pub const PROTOCOL_VERSION: u64 = 1;

/// How long a reader keeps retrying timed-out reads *mid-frame* before
/// declaring the peer dead. A fresh frame boundary propagates the timeout
/// immediately (that is the server's shutdown-poll point); inside a frame
/// the reader holds on, because abandoning a half-read frame desyncs the
/// stream.
pub const MID_FRAME_PATIENCE: Duration = Duration::from_secs(10);

/// Client-to-server message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// First frame on every connection: authenticate as a named tenant.
    Hello,
    /// Submit one job (app + input spec + per-job knob overrides).
    Submit,
    /// Ask for a live telemetry snapshot (queue depths, tenant stats).
    Metrics,
    /// Heartbeat probe; the server answers with `PONG`. Sent by clients
    /// that negotiated a heartbeat interval in `HELLO`, to keep the idle
    /// deadline at bay and detect a silently dead server.
    Ping,
    /// Ask the server to shut down gracefully.
    Shutdown,
}

impl RequestKind {
    /// Every request kind, in handshake-then-steady-state order.
    pub const ALL: [RequestKind; 5] = [
        RequestKind::Hello,
        RequestKind::Submit,
        RequestKind::Metrics,
        RequestKind::Ping,
        RequestKind::Shutdown,
    ];

    /// The wire name carried in the frame's `"type"` member.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Hello => "HELLO",
            RequestKind::Submit => "SUBMIT",
            RequestKind::Metrics => "METRICS",
            RequestKind::Ping => "PING",
            RequestKind::Shutdown => "SHUTDOWN",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_wire(name: &str) -> Option<RequestKind> {
        RequestKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// Server-to-client message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseKind {
    /// Handshake accepted; carries the negotiated protocol version.
    Welcome,
    /// A `SUBMIT` passed admission control; its result streams later.
    Accepted,
    /// A `SUBMIT` was shed — carries the typed reason and a retry hint.
    RetryAfter,
    /// A completed job: digest, timings, and the full metrics report.
    Result,
    /// A job that ran and failed (or died to a shutdown).
    JobError,
    /// The live telemetry snapshot answering a `METRICS` request.
    MetricsReport,
    /// The heartbeat answer to a `PING`.
    Pong,
    /// A request the server refused (bad auth, unknown app, malformed
    /// frame); the connection closes after protocol-level errors.
    Error,
    /// The server's goodbye: sent before it closes the connection.
    Bye,
}

impl ResponseKind {
    /// Every response kind.
    pub const ALL: [ResponseKind; 9] = [
        ResponseKind::Welcome,
        ResponseKind::Accepted,
        ResponseKind::RetryAfter,
        ResponseKind::Result,
        ResponseKind::JobError,
        ResponseKind::MetricsReport,
        ResponseKind::Pong,
        ResponseKind::Error,
        ResponseKind::Bye,
    ];

    /// The wire name carried in the frame's `"type"` member.
    pub fn as_str(self) -> &'static str {
        match self {
            ResponseKind::Welcome => "WELCOME",
            ResponseKind::Accepted => "ACCEPTED",
            ResponseKind::RetryAfter => "RETRY_AFTER",
            ResponseKind::Result => "RESULT",
            ResponseKind::JobError => "JOB_ERROR",
            ResponseKind::MetricsReport => "METRICS_REPORT",
            ResponseKind::Pong => "PONG",
            ResponseKind::Error => "ERROR",
            ResponseKind::Bye => "BYE",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_wire(name: &str) -> Option<ResponseKind> {
        ResponseKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// Serializes `frame` and writes it as one length-prefixed frame.
///
/// # Errors
///
/// `InvalidData` when the serialized frame exceeds `max_frame` bytes;
/// otherwise the underlying write error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Value, max_frame: usize) -> io::Result<()> {
    w.write_all(&encode_frame(frame, max_frame)?)?;
    w.flush()
}

/// Serializes `frame` into the exact bytes [`write_frame`] puts on the
/// wire: `LEN SP JSON NL`.
///
/// # Errors
///
/// `InvalidData` when the serialized frame exceeds `max_frame` bytes.
pub(crate) fn encode_frame(frame: &Value, max_frame: usize) -> io::Result<Vec<u8>> {
    let text = frame.to_json();
    if text.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {max_frame}-byte bound", text.len()),
        ));
    }
    let mut bytes = Vec::with_capacity(text.len() + 16);
    bytes.extend_from_slice(format!("{} ", text.len()).as_bytes());
    bytes.extend_from_slice(text.as_bytes());
    bytes.push(b'\n');
    Ok(bytes)
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (the peer
/// closed between frames).
///
/// A read timeout *between* frames propagates as the underlying
/// `WouldBlock`/`TimedOut` error so callers can poll a shutdown flag;
/// a timeout *inside* a frame is retried for `MID_FRAME_PATIENCE`
/// before giving up, so slow writers do not desync the stream.
///
/// # Errors
///
/// `InvalidData` on a malformed prefix, an oversized frame, or JSON that
/// does not parse; `UnexpectedEof` when the peer dies mid-frame.
pub fn read_frame<R: BufRead>(r: &mut R, max_frame: usize) -> io::Result<Option<Value>> {
    read_frame_with_patience(r, max_frame, MID_FRAME_PATIENCE)
}

/// [`read_frame`] with an explicit mid-frame patience budget instead of
/// the default [`MID_FRAME_PATIENCE`]. The fuzz suite uses a tiny budget
/// to prove the stall deadline actually fires without waiting out the
/// production ten seconds.
///
/// # Errors
///
/// Exactly as [`read_frame`], plus `TimedOut` when the peer stalls
/// mid-frame past `patience`.
pub fn read_frame_with_patience<R: BufRead>(
    r: &mut R,
    max_frame: usize,
    patience: Duration,
) -> io::Result<Option<Value>> {
    // Length prefix: ASCII digits up to the first space.
    let mut len: usize = 0;
    let mut digits = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if digits == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            // Idle between frames: let the caller poll. Mid-prefix the
            // frame has started, so fall through to patient retries.
            Err(e)
                if digits == 0
                    && matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                return Err(e);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        match byte[0] {
            b'0'..=b'9' => {
                digits += 1;
                len = len.saturating_mul(10).saturating_add(usize::from(byte[0] - b'0'));
                if len > max_frame {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds the {max_frame}-byte bound"),
                    ));
                }
            }
            b' ' if digits > 0 => break,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad frame prefix byte {other:#04x} (want ASCII digits then space)"),
                ));
            }
        }
    }

    // Payload + trailing newline, retrying timeouts patiently.
    let mut payload = vec![0u8; len + 1];
    let mut filled = 0;
    let deadline = Instant::now() + patience;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "peer stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if payload.pop() != Some(b'\n') {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame missing trailing newline"));
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    json::parse(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame JSON: {e}")))
}

/// The `"type"` member of a frame, or an error naming what was found.
pub fn frame_type(frame: &Value) -> Result<&str, String> {
    frame
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "frame has no string \"type\" member".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Obj(pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn frames_round_trip() {
        let frame = obj(&[
            ("type", Value::Str("HELLO".into())),
            ("tenant", Value::Str("alice".into())),
            ("version", Value::Num(1.0)),
        ]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame, 1024).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), None);
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        for i in 0..5u32 {
            write_frame(&mut wire, &obj(&[("id", Value::Num(f64::from(i)))]), 1024).unwrap();
        }
        let mut reader = BufReader::new(&wire[..]);
        for i in 0..5u32 {
            let frame = read_frame(&mut reader, 1024).unwrap().unwrap();
            assert_eq!(frame.get("id").and_then(Value::as_u64), Some(u64::from(i)));
        }
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let big = obj(&[("blob", Value::Str("x".repeat(100)))]);
        let mut wire = Vec::new();
        assert!(write_frame(&mut wire, &big, 32).is_err());
        write_frame(&mut wire, &big, 4096).unwrap();
        let err = read_frame(&mut BufReader::new(&wire[..]), 32).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_prefixes_are_rejected() {
        for bad in [&b"x5 {}\n"[..], b"5x {}\n", b" 5 {}\n"] {
            let err = read_frame(&mut BufReader::new(bad), 1024).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        // Length longer than the payload: the stream ends mid-frame.
        let err = read_frame(&mut BufReader::new(&b"3 {}\n"[..]), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Length shorter than the payload: the newline check fires.
        let err = read_frame(&mut BufReader::new(&b"1 {}\n"[..]), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wire_names_round_trip_through_from_wire() {
        for kind in RequestKind::ALL {
            assert_eq!(RequestKind::from_wire(kind.as_str()), Some(kind));
        }
        for kind in ResponseKind::ALL {
            assert_eq!(ResponseKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(RequestKind::from_wire("NOPE"), None);
        assert_eq!(ResponseKind::from_wire("NOPE"), None);
    }
}
