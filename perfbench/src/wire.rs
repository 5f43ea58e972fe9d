//! Client side of the text protocol: the open-loop request generator, the
//! windowed bulk loader, and the reply checks.
//!
//! Pacing uses nonblocking sockets and short sleeps, never socket read
//! timeouts: the kernel rounds `SO_RCVTIMEO` up to scheduler ticks, which
//! adds milliseconds to every wait. Each request is timed from the moment
//! it was due to be sent, so a stall also charges the requests queued
//! behind it.

use crate::stats::{thread_cpu_ms, Samples};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests per pipelined window of the bulk load, each window closed by a
/// `version` round trip.
pub const LOAD_WINDOW: usize = 1024;

/// How long a phase waits for replies after its last request was due
/// before the missing ones count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Sleep step of an idle generator loop.
const IDLE_STEP: Duration = Duration::from_micros(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Delete,
}

impl Kind {
    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
}

pub fn key_name(id: u32) -> String {
    format!("key:{id:08}")
}

/// The value stored under `id`: it starts with the key's name, so a reply
/// names the key it belongs to, and its filler depends on the key, so a
/// mixed-up payload is caught.
pub fn value_for(id: u32, len: usize) -> Vec<u8> {
    let mut v = key_name(id).into_bytes();
    v.push(b':');
    let mut i = 0u32;
    while v.len() < len {
        v.push(b'a' + (id.wrapping_add(i) % 26) as u8);
        i += 1;
    }
    v.truncate(len);
    v
}

/// Appends the wire form of `op` to `out`.
pub fn encode_request(out: &mut Vec<u8>, op: Op, value_len: usize, noreply: bool) {
    let key = key_name(op.key);
    match op.kind {
        Kind::Get => {
            out.extend_from_slice(b"get ");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Kind::Set => {
            let tail = if noreply { " noreply" } else { "" };
            out.extend_from_slice(format!("set {key} 0 0 {value_len}{tail}\r\n").as_bytes());
            out.extend_from_slice(&value_for(op.key, value_len));
            out.extend_from_slice(b"\r\n");
        }
        Kind::Delete => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Served; for a GET, a miss.
    Ok,
    /// A GET that returned the key's value.
    Hit,
    /// A typed server refusal (`SERVER_ERROR ...`): failed, not malformed.
    Failed,
}

#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    Incomplete,
    Done { status: Status, consumed: usize },
    Malformed(String),
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Parses the reply to `op` off the front of `buf` and checks it: the line
/// must be one this request can get, and a `VALUE` must carry exactly the
/// requested key's payload.
pub fn parse_reply(buf: &[u8], op: Op, value_len: usize) -> Reply {
    let Some(nl) = find_crlf(buf) else {
        return Reply::Incomplete;
    };
    let line = &buf[..nl];
    let done = |status| Reply::Done {
        status,
        consumed: nl + 2,
    };
    if line.starts_with(b"SERVER_ERROR") {
        return done(Status::Failed);
    }
    let shown = || String::from_utf8_lossy(line).into_owned();
    match op.kind {
        Kind::Get if line == b"END" => done(Status::Ok),
        Kind::Get if line.starts_with(b"VALUE ") => {
            let text = String::from_utf8_lossy(&line[6..]).into_owned();
            let fields: Vec<&str> = text.split(' ').collect();
            let want = key_name(op.key);
            if fields.len() != 3 || fields[0] != want {
                return Reply::Malformed(format!("asked for {want}, got `{}`", shown()));
            }
            let Ok(len) = fields[2].parse::<usize>() else {
                return Reply::Malformed(format!("bad VALUE length in `{}`", shown()));
            };
            let body = nl + 2;
            let total = body + len + 2 + 5;
            if buf.len() < total {
                return Reply::Incomplete;
            }
            let data = &buf[body..body + len];
            if &buf[body + len..total] != b"\r\nEND\r\n" {
                return Reply::Malformed(format!("VALUE for {want} not closed by END"));
            }
            if len != value_len || data != value_for(op.key, value_len).as_slice() {
                return Reply::Malformed(format!("payload for {want} does not name its key"));
            }
            Reply::Done {
                status: Status::Hit,
                consumed: total,
            }
        }
        Kind::Set if line == b"STORED" => done(Status::Ok),
        Kind::Delete if line == b"DELETED" || line == b"NOT_FOUND" => done(Status::Ok),
        _ => Reply::Malformed(format!("unexpected reply `{}` to {:?}", shown(), op.kind)),
    }
}

/// What one connection saw during an open-loop phase.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// Per op, in due order: µs from the due time to the complete reply;
    /// infinite for a failed or missing reply.
    pub latency_us: Vec<f32>,
    /// Traced runs only: µs from the request's last byte leaving `write`
    /// to the complete reply.
    pub roundtrip: Samples,
    /// Traced runs only: how late the request's last byte left `write`,
    /// against its due time, in µs.
    pub late: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub hits: u64,
    pub malformed: Vec<String>,
    /// Requests still unanswered when the last one was due.
    pub backlog_at_last_due: usize,
    /// False when the phase ended with requests unanswered or the
    /// connection broken: replies still in flight would be read as answers
    /// to the next phase's requests, so the connection must be replaced.
    pub in_sync: bool,
    /// Reply bytes read.
    pub bytes_in: u64,
    /// CPU time of the generator thread over the phase.
    pub cpu_ms: f64,
    /// Traced runs only: the exact bytes sent, and per answered op its
    /// status and due/reply times.
    pub sent: Vec<u8>,
    pub statuses: Vec<(Op, Status)>,
    pub spans: Vec<(Instant, Instant)>,
}

struct Pending {
    index: usize,
    op: Op,
    due: Instant,
    end_offset: u64,
    written: Option<Instant>,
}

/// Sends `ops` on `stream` at a fixed rate starting at `t0`, one request
/// every `interval`, reading replies as they arrive. Requests are sent when
/// due whether or not earlier replies are back: an open loop.
pub fn drive(
    stream: &mut TcpStream,
    ops: &[Op],
    t0: Instant,
    interval: Duration,
    value_len: usize,
    record: bool,
) -> std::io::Result<ConnOut> {
    let cpu0 = thread_cpu_ms();
    stream.set_nonblocking(true)?;
    let mut out = ConnOut {
        latency_us: vec![f32::INFINITY; ops.len()],
        ..ConnOut::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut wpos = 0usize;
    let mut queued = 0u64;
    let mut written = 0u64;
    let mut rbuf: Vec<u8> = Vec::new();
    let mut rpos = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let n = ops.len();
    let interval_ns = interval.as_nanos() as u64;
    let due_of = |i: usize| t0 + Duration::from_nanos(i as u64 * interval_ns);
    let last_due = due_of(n.saturating_sub(1));
    let mut dead = false;
    loop {
        let mut progressed = false;
        let now = Instant::now();
        while next < n && due_of(next) <= now {
            let start = wbuf.len();
            encode_request(&mut wbuf, ops[next], value_len, false);
            queued += (wbuf.len() - start) as u64;
            if record {
                out.sent.extend_from_slice(&wbuf[start..]);
            }
            pending.push_back(Pending {
                index: next,
                op: ops[next],
                due: due_of(next),
                end_offset: queued,
                written: None,
            });
            next += 1;
            out.attempted += 1;
            if next == n {
                out.backlog_at_last_due = pending.len();
            }
        }
        if wpos < wbuf.len() {
            match stream.write(&wbuf[wpos..]) {
                Ok(k) => {
                    wpos += k;
                    written += k as u64;
                    progressed = true;
                    let t = Instant::now();
                    for p in pending.iter_mut().filter(|p| p.written.is_none()) {
                        if p.end_offset <= written {
                            p.written = Some(t);
                            if record {
                                out.late.push((t - p.due).as_secs_f64() * 1e6);
                            }
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => dead = true,
            }
            if wpos == wbuf.len() {
                wbuf.clear();
                wpos = 0;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => dead = true,
            Ok(k) => {
                rbuf.extend_from_slice(&chunk[..k]);
                out.bytes_in += k as u64;
                progressed = true;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => dead = true,
        }
        let t = Instant::now();
        while let Some(p) = pending.front() {
            if p.written.is_none() {
                break;
            }
            match parse_reply(&rbuf[rpos..], p.op, value_len) {
                Reply::Incomplete => break,
                Reply::Malformed(msg) => {
                    out.malformed.push(msg);
                    dead = true;
                    break;
                }
                Reply::Done { status, consumed } => {
                    rpos += consumed;
                    if status == Status::Failed {
                        out.failed += 1;
                    } else {
                        out.latency_us[p.index] = ((t - p.due).as_secs_f64() * 1e6) as f32;
                    }
                    if p.op.kind == Kind::Get {
                        out.gets += 1;
                        out.hits += u64::from(status == Status::Hit);
                    }
                    if record {
                        if let Some(w) = p.written {
                            out.roundtrip.push((t - w).as_secs_f64() * 1e6);
                        }
                        out.statuses.push((p.op, status));
                        out.spans.push((p.due, t));
                    }
                    pending.pop_front();
                }
            }
        }
        if rpos > 0 && rpos == rbuf.len() {
            rbuf.clear();
            rpos = 0;
        } else if rpos > 1 << 20 {
            rbuf.drain(..rpos);
            rpos = 0;
        }
        let finished = next == n && pending.is_empty();
        let timed_out = next == n && Instant::now() > last_due + DRAIN_TIMEOUT;
        if finished || timed_out || dead {
            // Unsent and unanswered requests are failures; their latency
            // stays infinite.
            out.attempted += (n - next) as u64;
            out.failed += pending.len() as u64 + (n - next) as u64;
            out.in_sync = finished && !dead;
            break;
        }
        if !progressed {
            std::thread::sleep(IDLE_STEP);
        }
    }
    out.cpu_ms = thread_cpu_ms() - cpu0;
    Ok(out)
}

/// One `version` round trip on a blocking stream. Anything but a single
/// `VERSION` line is an error: the `noreply` sets before it send nothing
/// back, not even a refusal.
pub fn version_sync(stream: &mut TcpStream) -> Result<(), String> {
    stream
        .write_all(b"version\r\n")
        .map_err(|e| format!("version write: {e}"))?;
    let mut got: Vec<u8> = Vec::new();
    let mut byte = [0u8; 256];
    loop {
        let k = stream
            .read(&mut byte)
            .map_err(|e| format!("version read: {e}"))?;
        if k == 0 {
            return Err("connection closed during version sync".into());
        }
        got.extend_from_slice(&byte[..k]);
        if let Some(nl) = find_crlf(&got) {
            if !got.starts_with(b"VERSION ") || nl + 2 != got.len() {
                return Err(format!(
                    "expected only a VERSION line, got `{}`",
                    String::from_utf8_lossy(&got)
                ));
            }
            return Ok(());
        }
    }
}

/// Bulk load: `set ... noreply` for every key, pipelined in windows of
/// [`LOAD_WINDOW`] sets, each window closed by a `version` round trip.
/// Returns the elapsed time.
pub fn windowed_load(
    stream: &mut TcpStream,
    keys: &[u32],
    value_len: usize,
) -> Result<Duration, String> {
    let mut buf = Vec::with_capacity(LOAD_WINDOW * (value_len + 48));
    let start = Instant::now();
    for window in keys.chunks(LOAD_WINDOW) {
        buf.clear();
        for &key in window {
            encode_request(
                &mut buf,
                Op {
                    kind: Kind::Set,
                    key,
                },
                value_len,
                true,
            );
        }
        stream
            .write_all(&buf)
            .map_err(|e| format!("load write: {e}"))?;
        version_sync(stream)?;
    }
    Ok(start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(key: u32) -> Op {
        Op {
            kind: Kind::Get,
            key,
        }
    }

    #[test]
    fn value_reply_must_name_the_requested_key() {
        let mut hit = format!("VALUE {} 0 32\r\n", key_name(7)).into_bytes();
        hit.extend_from_slice(&value_for(7, 32));
        hit.extend_from_slice(b"\r\nEND\r\n");
        assert_eq!(
            parse_reply(&hit, get(7), 32),
            Reply::Done {
                status: Status::Hit,
                consumed: hit.len()
            }
        );
        assert!(matches!(parse_reply(&hit, get(8), 32), Reply::Malformed(_)));
        assert_eq!(
            parse_reply(&hit[..hit.len() - 1], get(7), 32),
            Reply::Incomplete
        );
    }

    #[test]
    fn swapped_payload_is_malformed() {
        let mut reply = format!("VALUE {} 0 32\r\n", key_name(7)).into_bytes();
        reply.extend_from_slice(&value_for(9, 32));
        reply.extend_from_slice(b"\r\nEND\r\n");
        assert!(matches!(
            parse_reply(&reply, get(7), 32),
            Reply::Malformed(_)
        ));
    }

    #[test]
    fn refusals_fail_and_stray_lines_are_malformed() {
        let set = Op {
            kind: Kind::Set,
            key: 1,
        };
        assert_eq!(
            parse_reply(b"SERVER_ERROR shed-write\r\n", set, 8),
            Reply::Done {
                status: Status::Failed,
                consumed: 25
            }
        );
        assert!(matches!(
            parse_reply(b"END\r\n", set, 8),
            Reply::Malformed(_)
        ));
        assert!(matches!(
            parse_reply(b"ERROR\r\n", get(1), 8),
            Reply::Malformed(_)
        ));
    }

    #[test]
    fn values_have_the_requested_length() {
        assert_eq!(value_for(3, 64).len(), 64);
        assert_eq!(value_for(3, 1024).len(), 1024);
        assert!(value_for(3, 64).starts_with(key_name(3).as_bytes()));
    }
}
