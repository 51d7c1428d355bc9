//! Connection loops: framed JSON over any `Read + Write` pair, with
//! stdin/stdout and TCP front ends.
//!
//! Protocol failures never tear down a connection when recovery is
//! possible: an oversized length prefix is answered with a structured
//! error reply and its payload skipped (the stream resynchronizes on the
//! next frame boundary); a payload that fails to parse is answered the
//! same way; only a truncated stream — which has no next frame — ends
//! the loop, after a best-effort error reply.
//!
//! Every request frame is answered with one write: all of its reply
//! frames are assembled in one per-connection buffer first. Small writes
//! per reply would leave segments for Nagle's algorithm to hold until the
//! peer's delayed ACK, about 40 ms per batch on loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use macgame_telemetry as telemetry;

use crate::engine::{encode_reply, Engine};
use crate::frame::{discard, read_frame, write_frame, FrameError};
use crate::protocol::{ErrorKind, ErrorReply, Reply};
use crate::ServeError;

/// How long the accept loop pauses after a failed `accept()`. The errors
/// that repeat — the process or system out of file descriptors
/// (EMFILE/ENFILE) — would otherwise spin it until a connection closes.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Appends one frame-level error reply (`id: null`) to `out`.
fn frame_level_error(out: &mut Vec<u8>, kind: ErrorKind, message: String) -> std::io::Result<()> {
    write_frame(out, &encode_reply(&Reply::Error { id: None, error: ErrorReply { kind, message } }))
}

/// Writes `bytes` with one `write_all` and flushes.
fn send(writer: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    writer.write_all(bytes)?;
    writer.flush()
}

/// Serves one connection: reads request frames until end-of-stream,
/// writing reply frames in request order, all replies to one request
/// frame in one write. Malformed input yields structured error replies
/// and keeps the loop alive wherever the stream can resynchronize.
///
/// # Errors
///
/// Returns [`ServeError::Io`] only for transport-level write/read
/// failures (a peer that vanished); protocol-level garbage is handled
/// in-band.
pub fn serve_stream<R: Read, W: Write>(
    engine: &Engine,
    reader: &mut R,
    writer: &mut W,
) -> Result<(), ServeError> {
    let mut out = Vec::new();
    loop {
        out.clear();
        match read_frame(reader) {
            Ok(None) => return Ok(()), // clean end-of-stream
            Ok(Some(payload)) => {
                engine.frame_replies(&payload, &mut out)?;
                send(writer, &out)?;
            }
            Err(FrameError::TooLarge { declared }) => {
                telemetry::counter("serve.frame_errors", 1);
                let message = FrameError::TooLarge { declared }.to_string();
                frame_level_error(&mut out, ErrorKind::FrameTooLarge, message)?;
                send(writer, &out)?;
                if !discard(reader, declared)? {
                    return Ok(()); // stream ended inside the oversized payload
                }
            }
            Err(FrameError::Truncated) => {
                telemetry::counter("serve.frame_errors", 1);
                // Best-effort: the peer may already be gone.
                let message = FrameError::Truncated.to_string();
                if frame_level_error(&mut out, ErrorKind::TruncatedFrame, message).is_ok() {
                    let _ = send(writer, &out);
                }
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(ServeError::Io(e)),
        }
    }
}

/// Serves stdin/stdout until end-of-stream — the subprocess transport.
///
/// # Errors
///
/// Propagates transport-level I/O failures.
pub fn serve_stdio(engine: &Engine) -> Result<(), ServeError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_stream(engine, &mut reader, &mut writer)
}

/// Accepts connections forever, serving each on its own thread — the
/// socket transport. Per-connection failures (a peer that vanished
/// mid-frame) end that connection only, never the accept loop. A failed
/// `accept()` (a connection aborted before it was accepted, the process
/// out of file descriptors) is counted under `serve.accept_errors` and,
/// after a short pause, the loop accepts again.
///
/// # Errors
///
/// None in practice: every failed `accept()` is counted and retried, so
/// the loop ends only with the process.
pub fn serve_tcp(engine: &Arc<Engine>, listener: &TcpListener) -> Result<(), ServeError> {
    loop {
        accept_one(engine, listener.accept());
    }
}

/// One turn of the accept loop: serve an accepted stream on its own
/// thread, or count a failed `accept()` and pause.
fn accept_one(engine: &Arc<Engine>, accepted: std::io::Result<(TcpStream, SocketAddr)>) {
    match accepted {
        Ok((stream, _peer)) => {
            telemetry::counter("serve.connections", 1);
            let engine = Arc::clone(engine);
            std::thread::spawn(move || {
                let _ = serve_tcp_connection(&engine, stream);
            });
        }
        Err(_) => {
            telemetry::counter("serve.accept_errors", 1);
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
        }
    }
}

/// Serves one accepted TCP stream (reader and writer halves of the same
/// socket), with Nagle's algorithm off so the tail segment of a reply
/// write larger than one segment is not held for the peer's ACK.
///
/// # Errors
///
/// Propagates transport-level I/O failures on this connection.
pub fn serve_tcp_connection(engine: &Engine, stream: TcpStream) -> Result<(), ServeError> {
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    serve_stream(engine, &mut reader, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::harness::ServeHarness;
    use macgame_core::queries::Query;
    use macgame_dcf::AccessMode;
    use macgame_telemetry::CollectingRecorder;

    #[test]
    fn a_failed_accept_is_counted_and_the_next_connection_is_served() {
        let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queries = [Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 }];
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut replies = Vec::new();
            stream.read_to_end(&mut replies).unwrap();
            ServeHarness::decode_replies(&replies).unwrap()
        });

        let recorder = Arc::new(CollectingRecorder::new());
        telemetry::set_recorder(recorder.clone());
        // EMFILE, as `accept()` reports it when the process is out of fds.
        accept_one(&engine, Err(std::io::Error::from_raw_os_error(24)));
        telemetry::clear_recorder();
        assert!(recorder.snapshot().counter("serve.accept_errors") >= 1);

        accept_one(&engine, listener.accept());
        let replies = client.join().unwrap();
        assert_eq!(replies.len(), 1);
        assert!(replies[0].is_ok());
    }
}
