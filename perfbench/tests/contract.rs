//! The benchmark's own contract: its metric names match `BENCHMARK.json`,
//! a wrong reply is counted as a failure, and a server that dies mid-run
//! ends the run with failures instead of a hang.

use std::net::TcpListener;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use macgame_core::queries::QueryResult;
use macgame_serve::frame::{read_frame, write_frame};
use macgame_serve::{serve_tcp, Engine, EngineConfig, Reply, ServeHarness};
use perfbench::report::{render, Outcome, END_TO_END, PER_LAYER};
use perfbench::serve::{
    closed_loop, query_pool, reference_results, Checker, Client, QueryStream, ServedChild, Spec,
    BATCH_SIZE,
};
use serde::Deserialize;

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of a printed result line, in order.
fn printed_metrics(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry
                .trim_start_matches('{')
                .trim()
                .split('"')
                .nth(1)
                .expect("a quoted name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .expect("a unit")
                .split('"')
                .next()
                .expect("unit text");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let declared = benchmark_json();
    for (trace, catalogue, expected) in [
        (false, END_TO_END, &declared.end_to_end),
        (true, PER_LAYER, &declared.per_layer),
    ] {
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _) in catalogue {
            outcome.set(name, 1.0);
        }
        let printed = printed_metrics(&render(&outcome, trace).unwrap());
        let declared: Vec<(String, String)> = expected
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(printed, declared, "trace {trace}");
        for (name, _) in &printed {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}` uses characters outside [A-Za-z0-9_.-]"
            );
        }
    }
}

/// One query of each kind, so the reference stays cheap in a debug build
/// and the stand-in servers answer every batch after the first from their
/// caches.
const SMALL: Spec = Spec {
    per_kind: 1,
    skew: None,
};

fn checked_pool(seed: u64) -> (Vec<macgame_core::queries::Query>, Checker) {
    let pool = query_pool(seed, &SMALL).unwrap();
    let mut checker = Checker::new(pool.len());
    for (i, json) in reference_results(&pool).unwrap().into_iter().enumerate() {
        checker.expect(i, json);
    }
    (pool, checker)
}

#[test]
fn a_corrupted_reply_raises_the_fail_ratio() {
    let (pool, mut checker) = checked_pool(11);
    // A stand-in server: the real engine, except that the fourth reply of
    // the second batch carries a wrong result under the right id.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut batch = 0;
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            batch += 1;
            for (i, mut reply) in engine.handle_payload(&payload).into_iter().enumerate() {
                if batch == 2 && i == 3 {
                    let wrong = Reply::Ok {
                        id: 4,
                        result: QueryResult::NeInterval {
                            lower: 1,
                            upper: 2,
                            count: 2,
                        },
                    };
                    reply = serde_json::to_string(&wrong).unwrap().into_bytes();
                }
                write_frame(&mut stream, &reply).unwrap();
            }
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let mut stream = QueryStream::new(3, &SMALL);
    let stats = closed_loop(
        &mut client,
        &pool,
        &mut stream,
        &mut checker,
        3.0,
        None,
        false,
    )
    .unwrap();
    drop(client);
    server.join().unwrap();

    assert!(
        stats.batch_ms.len() >= 2,
        "the loop must get past the corrupted batch"
    );
    let outcome = Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        ..Outcome::default()
    };
    assert_eq!(outcome.failed, 1);
    assert!(outcome.fail_ratio() > 0.0);
    assert!(render(
        &Outcome {
            metrics: Default::default(),
            ..outcome
        },
        true
    )
    .unwrap()
    .contains("\"correct\": false"));
}

/// Not a test of its own: run by `a_killed_served_child_is_reported_as_failures`
/// as a child process standing in for `served --tcp 127.0.0.1:0`.
#[test]
fn stand_in_served() {
    if std::env::var_os("PERFBENCH_STAND_IN").is_none() {
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    eprintln!("served: listening on {}", listener.local_addr().unwrap());
    let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
    let _ = serve_tcp(&engine, &listener);
}

#[test]
fn a_killed_served_child_is_reported_as_failures() {
    let (pool, mut checker) = checked_pool(12);
    let mut command = Command::new(std::env::current_exe().unwrap());
    command
        .args([
            "--exact",
            "stand_in_served",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("PERFBENCH_STAND_IN", "1");
    let child = ServedChild::spawn(command).unwrap();
    let pid = child.pid();
    let mut client = Client::connect(child.addr()).unwrap();
    // Warm the stand-in's cache, so batches before the kill are quick even
    // in a debug build.
    let wire = ServeHarness::encode_batch(&pool).unwrap();
    client.roundtrip(&wire, pool.len()).unwrap();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(2));
        Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .unwrap();
    });

    let start = Instant::now();
    let mut stream = QueryStream::new(5, &SMALL);
    let stats = closed_loop(
        &mut client,
        &pool,
        &mut stream,
        &mut checker,
        60.0,
        Some(pid),
        false,
    )
    .unwrap();
    killer.join().unwrap();
    drop(child);

    assert!(
        start.elapsed() < Duration::from_secs(40),
        "a dead server must not hang the loop"
    );
    assert!(stats.broken);
    assert!(
        checker.failed >= BATCH_SIZE as u64,
        "the batch in flight fails whole"
    );
    assert!(
        checker.attempted > checker.failed,
        "batches before the kill were answered"
    );
}
