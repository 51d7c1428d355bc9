//! Transport end-to-end tests: the TCP front end over a localhost
//! ephemeral port, multi-frame sessions, and recovery after garbage —
//! the same engine semantics the in-process [`ServeHarness`] asserts,
//! now through real sockets.

use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::frame::{write_frame, MAX_FRAME_LEN};
use macgame_serve::{serve_stream, serve_tcp, Engine, EngineConfig, ErrorKind, Reply, ServeHarness};

/// Binds an ephemeral localhost port and serves it from a detached
/// thread, returning the address to dial. The accept loop runs for the
/// life of the test process.
fn spawn_server() -> (Arc<Engine>, std::net::SocketAddr) {
    let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept_engine = Arc::clone(&engine);
    std::thread::spawn(move || {
        let _ = serve_tcp(&accept_engine, &listener);
    });
    (engine, addr)
}

fn queries() -> Vec<Query> {
    vec![
        Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 },
        Query::NeInterval { players: 4, mode: AccessMode::RtsCts, w_max: 256 },
        Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.0,
        },
    ]
}

/// Reads reply frames off `stream` until `count` have arrived.
fn read_replies(stream: &mut TcpStream, count: usize) -> Vec<Reply> {
    let mut replies = Vec::new();
    while replies.len() < count {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).unwrap();
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        replies.push(serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap());
    }
    replies
}

#[test]
fn tcp_round_trip_matches_the_in_process_harness() {
    let (_engine, addr) = spawn_server();
    let queries = queries();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
    let over_tcp = read_replies(&mut stream, queries.len());

    let harness = ServeHarness::new().unwrap();
    let in_process = harness.query_batch(&queries).unwrap();
    assert_eq!(over_tcp, in_process, "TCP replies must match the in-process wire path");
}

#[test]
fn one_connection_serves_many_frames_in_order() {
    let (_engine, addr) = spawn_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    for players in 2..=5 {
        let batch = vec![Query::WcStar { players, mode: AccessMode::Basic, w_max: 256 }];
        stream.write_all(&ServeHarness::encode_batch(&batch).unwrap()).unwrap();
        let replies = read_replies(&mut stream, 1);
        assert_eq!(replies[0].id(), Some(1));
        assert!(replies[0].is_ok(), "frame for players={players} failed");
    }
}

#[test]
fn a_garbage_frame_does_not_kill_the_connection() {
    let (_engine, addr) = spawn_server();
    let mut stream = TcpStream::connect(addr).unwrap();

    let mut wire = Vec::new();
    write_frame(&mut wire, b"definitely not a batch").unwrap();
    stream.write_all(&wire).unwrap();
    let garbage_replies = read_replies(&mut stream, 1);
    let Reply::Error { id: None, error } = &garbage_replies[0] else {
        panic!("expected a null-id error reply");
    };
    assert_eq!(error.kind, ErrorKind::MalformedJson);

    // The same connection still answers a well-formed batch.
    let queries = queries();
    stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
    let replies = read_replies(&mut stream, queries.len());
    assert!(replies.iter().all(Reply::is_ok));
}

#[test]
fn a_frame_sized_malformed_token_is_answered_and_the_next_batch_too() {
    // The parser echoes a bad number token in its error message; a
    // 1 MiB token must not make the reply too large to frame.
    let mut token = vec![b'0'; MAX_FRAME_LEN];
    token[0] = b'-';
    token[MAX_FRAME_LEN - 1] = b'e';
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &token).unwrap();
    wire.extend_from_slice(&ServeHarness::encode_batch(&queries()).unwrap());
    let mut out = Vec::new();
    serve_stream(&engine, &mut Cursor::new(wire), &mut out).unwrap();
    let replies = ServeHarness::decode_replies(&out).unwrap();
    assert_eq!(replies.len(), 1 + queries().len());
    let Reply::Error { id: None, error } = &replies[0] else {
        panic!("expected a null-id error reply, got {:?}", replies[0]);
    };
    assert_eq!(error.kind, ErrorKind::MalformedJson);
    assert!(error.message.len() < 1024, "{} bytes echoed", error.message.len());
    assert!(replies[1..].iter().all(Reply::is_ok));
}

#[test]
fn concurrent_connections_share_one_engine_and_its_caches() {
    let (engine, addr) = spawn_server();
    let queries = Arc::new(queries());
    let expected = {
        let harness = ServeHarness::new().unwrap();
        harness.query_batch(&queries).unwrap()
    };

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let queries = Arc::clone(&queries);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
                let replies = read_replies(&mut stream, queries.len());
                assert_eq!(replies, expected);
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    // All four connections fed the same shared reply cache. Concurrent
    // cold lookups may each miss before the first insert lands
    // (first-insert-wins keeps the values identical), so the exact
    // hit/miss split is timing-dependent — but every lookup is counted
    // exactly once, and the batches raced so at least one hit occurred
    // only if some connection arrived after an insert.
    let lookups = engine.reply_cache().hits() + engine.reply_cache().misses();
    assert_eq!(lookups, (4 * queries.len()) as u64);
    assert!(engine.reply_cache().misses() >= queries.len() as u64);
}

/// A writer that accepts everything and counts `write` and `flush` calls.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
    flushes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

#[test]
fn every_request_frame_is_answered_with_one_write() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let batch = ServeHarness::encode_batch(&queries()).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&batch);
    write_frame(&mut wire, b"definitely not a batch").unwrap();
    wire.extend_from_slice(&batch);
    wire.extend_from_slice(&batch);
    let mut writer = CountingWriter::default();
    serve_stream(&engine, &mut Cursor::new(wire), &mut writer).unwrap();
    assert_eq!((writer.writes, writer.flushes), (4, 4));
    let replies = ServeHarness::decode_replies(&writer.bytes).unwrap();
    assert_eq!(replies.len(), 1 + 3 * queries().len());
}

/// A batch of 64 distinct queries the server can answer from its cache
/// once warmed.
fn hot_batch() -> Vec<Query> {
    (0..64u32)
        .map(|i| Query::DeviationPayoff {
            players: 5,
            mode: if i % 2 == 0 { AccessMode::Basic } else { AccessMode::RtsCts },
            w_star: 79,
            w_dev: 10 + i,
            reaction_stages: 1,
            delta_s: 0.5,
        })
        .collect()
}

#[test]
fn warm_batches_round_trip_without_the_delayed_ack_stall() {
    let (_engine, addr) = spawn_server();
    let batch = ServeHarness::encode_batch(&hot_batch()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&batch).unwrap();
    assert!(read_replies(&mut stream, 64).iter().all(Reply::is_ok));

    // A server that sends a reply in small writes waits about 40 ms per
    // batch for the client's delayed ACK: 32 round trips take over 1.3 s.
    let start = Instant::now();
    for _ in 0..32 {
        stream.write_all(&batch).unwrap();
        assert!(read_replies(&mut stream, 64).iter().all(Reply::is_ok));
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "32 warm round trips took {elapsed:?}");
}
