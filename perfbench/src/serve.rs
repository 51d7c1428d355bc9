//! The serve workloads: the real `served` binary over TCP, driven by one
//! closed-loop client connection (the next batch goes out only after every
//! reply to the previous one has arrived; one connection stays below the
//! reference machine's 2 cores).
//!
//! End to end, a batch is timed from the first byte written to the last
//! reply frame read; the client's own encoding and checking stay outside
//! that window. The traced run first runs the same timed loop, then replays
//! every batch it sent in process through the public pieces
//! `serve_stream` composes, so each stage gets its own span, and the
//! socket path is what the end-to-end round trip leaves over.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use macgame_core::equilibrium::DEFAULT_NE_EPSILON;
use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::frame::{read_frame, write_frame};
use macgame_serve::{BatchRequest, Engine, EngineConfig, Reply, ServeHarness};
use macgame_telemetry::{self as telemetry, CollectingRecorder};

use crate::report::{Args, Outcome};
use crate::rng::{SplitMix64, Zipf};
use crate::stats::{mean, median, peak_rss_mib, quantile, ratio, time_setups};
use crate::trace::Tracer;

/// Queries per batch frame.
pub const BATCH_SIZE: usize = 64;
/// Batches per block; `run_s` is the median wall time of one block.
pub const BLOCK_BATCHES: usize = 16;
/// How long a socket read or write may stall before the batch fails.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long `served` may take to report its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// What distinguishes the two serve workloads.
///
/// A skewed workload sends its whole pool once during set-up, so every
/// timed query hits the reply cache; a uniform one starts cold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Distinct queries of each of the [`KINDS`] kinds in the pool.
    pub per_kind: usize,
    /// Zipf exponent of the draws within each kind; `None` draws
    /// uniformly and skips the warm-up.
    pub skew: Option<f64>,
}

impl Spec {
    /// Whether set-up warms the reply cache with the whole pool.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.skew.is_some()
    }
}

/// 384 queries, all resident in the 4096-entry reply cache after set-up,
/// drawn with Zipf skew (s = 1) within each kind.
pub const HOT: Spec = Spec {
    per_kind: 96,
    skew: Some(1.0),
};

/// 16384 queries, four times the reply cache and the per-mode solve cache,
/// drawn uniformly within each kind: most queries miss, solve, insert and
/// evict.
pub const CHURN: Spec = Spec {
    per_kind: 4096,
    skew: None,
};

/// Query kinds: deviation payoffs, `W_c*`, NE intervals and robustness
/// cells.
pub const KINDS: usize = 4;

/// Queries of each kind in every batch. No served traffic has been
/// recorded to take a mix from, so the three cheap kinds get equal shares.
/// A cold robustness cell costs far more than the rest, so there is one
/// per batch: with more, a churn run would send too few queries to cycle
/// the reply cache, and batch costs would spread more.
pub const MIX: [usize; KINDS] = [21, 21, 21, 1];
const _: () = assert!(MIX[0] + MIX[1] + MIX[2] + MIX[3] == BATCH_SIZE);

/// One random query of `kind` (an index below [`KINDS`]) across n = 2..=50
/// and both access modes.
fn random_query(kind: usize, rng: &mut SplitMix64) -> Query {
    let players = rng.range(2, 50) as usize;
    let mode = rng.pick(&[AccessMode::Basic, AccessMode::RtsCts]);
    match kind {
        0 => {
            let w_star = rng.range(8, 512) as u32;
            Query::DeviationPayoff {
                players,
                mode,
                w_star,
                w_dev: rng.range(1, u64::from(w_star)) as u32,
                reaction_stages: rng.range(1, 3) as u32,
                delta_s: rng.pick(&[0.0, 0.5, 0.9, 0.99]),
            }
        }
        1 => Query::WcStar {
            players,
            mode,
            w_max: rng.range(512, 4096) as u32,
        },
        2 => Query::NeInterval {
            players,
            mode,
            w_max: rng.range(512, 4096) as u32,
        },
        _ => Query::RobustnessCell {
            players,
            mode,
            window: rng.range(4, 1024) as u32,
            reaction_stages: rng.range(1, 3) as u32,
            epsilon: DEFAULT_NE_EPSILON,
        },
    }
}

/// The pool index range of `kind`.
fn stratum(spec: &Spec, kind: usize) -> std::ops::Range<usize> {
    kind * spec.per_kind..(kind + 1) * spec.per_kind
}

/// The distinct queries of `spec`'s pool drawn from `seed`, grouped by
/// kind as [`stratum`] lays them out.
///
/// # Errors
///
/// Fails if the query space cannot supply enough distinct queries.
pub fn query_pool(seed: u64, spec: &Spec) -> Result<Vec<Query>, String> {
    let size = spec.per_kind * KINDS;
    let mut rng = SplitMix64::new(seed, 1);
    let mut keys = HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    for kind in 0..KINDS {
        let end = stratum(spec, kind).end;
        let mut tries = 0;
        while pool.len() < end {
            tries += 1;
            if tries > 50 * spec.per_kind {
                return Err(format!(
                    "too few distinct queries of kind {kind} for a pool of {size}"
                ));
            }
            let query = random_query(kind, &mut rng);
            if keys.insert(serde_json::to_string(&query).map_err(|e| e.to_string())?) {
                pool.push(query);
            }
        }
    }
    Ok(pool)
}

/// The seeded sequence of batches, as indices into the pool.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: SplitMix64,
    spec: Spec,
    zipf: Option<Zipf>,
}

impl QueryStream {
    /// The stream for `seed` over `spec`'s pool.
    #[must_use]
    pub fn new(seed: u64, spec: &Spec) -> Self {
        QueryStream {
            rng: SplitMix64::new(seed, 2),
            spec: *spec,
            zipf: spec.skew.map(|s| Zipf::new(spec.per_kind, s)),
        }
    }

    /// The next batch: [`MIX`] queries of each kind, in shuffled order.
    pub fn next_batch(&mut self) -> Vec<usize> {
        let mut batch = Vec::with_capacity(BATCH_SIZE);
        for (kind, &count) in MIX.iter().enumerate() {
            let start = stratum(&self.spec, kind).start;
            for _ in 0..count {
                let offset = match &self.zipf {
                    Some(zipf) => zipf.sample(&mut self.rng),
                    None => self.rng.below(self.spec.per_kind as u64) as usize,
                };
                batch.push(start + offset);
            }
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        batch
    }
}

/// A `served` child process listening on a loopback port. Dropping it
/// kills the process and waits for it.
#[derive(Debug)]
pub struct ServedChild {
    child: Child,
    addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl ServedChild {
    /// Starts `command` (a `served --tcp 127.0.0.1:0` or a stand-in that
    /// prints the same `served: listening on ADDR` line on stderr) and
    /// waits for its address.
    ///
    /// # Errors
    ///
    /// Fails if the process cannot start or never reports an address.
    pub fn spawn(mut command: Command) -> Result<Self, String> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {command:?}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr was piped above");
        let (tx, rx) = mpsc::channel();
        // Keep reading stderr until the child exits so it can never block
        // on a full pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("served: listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut served = ServedChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_drain: Some(stderr_drain),
        };
        let text = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "served exited or stalled before reporting its address".to_string())?;
        served.addr = text
            .parse()
            .map_err(|e| format!("bad listening address `{text}`: {e}"))?;
        Ok(served)
    }

    /// The real `served` at `path` with its default flags.
    ///
    /// # Errors
    ///
    /// As [`ServedChild::spawn`].
    pub fn served(path: &Path) -> Result<Self, String> {
        let mut command = Command::new(path);
        command.args(["--tcp", "127.0.0.1:0"]);
        Self::spawn(command)
    }

    /// The listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServedChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection speaking the framed protocol.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one framed batch and reads `replies` reply frames.
    ///
    /// # Errors
    ///
    /// Fails when the server closes the connection, stalls past the
    /// timeout, or sends a malformed frame.
    pub fn roundtrip(&mut self, wire: &[u8], replies: usize) -> std::io::Result<Vec<Vec<u8>>> {
        self.writer.write_all(wire)?;
        (0..replies)
            .map(|_| match read_frame(&mut self.reader) {
                Ok(Some(payload)) => Ok(payload),
                Ok(None) => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "served closed the connection",
                )),
                Err(e) => Err(std::io::Error::other(e.to_string())),
            })
            .collect()
    }
}

/// The result JSON of an `Ok` reply that echoes `id`; `None` otherwise.
fn ok_result_json(payload: &[u8], id: u64) -> Option<String> {
    let reply: Reply = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    match reply {
        Reply::Ok { id: got, result } if got == id => serde_json::to_string(&result).ok(),
        _ => None,
    }
}

/// Checks replies against reference results, counting every query.
///
/// A reply fails when it is missing, not `Ok`, echoes the wrong id, or
/// carries a result that differs from the reference. A query whose
/// reference is not known yet is held against the first reply seen for
/// it, and against the reference once [`Checker::expect`] supplies it.
#[derive(Debug, Clone)]
pub struct Checker {
    expected: Vec<Option<String>>,
    first_seen: Vec<Option<(String, u64)>>,
    /// Queries checked.
    pub attempted: u64,
    /// Queries whose reply was wrong or missing.
    pub failed: u64,
}

impl Checker {
    /// A checker for a pool of `pool_len` queries.
    #[must_use]
    pub fn new(pool_len: usize) -> Self {
        Checker {
            expected: vec![None; pool_len],
            first_seen: vec![None; pool_len],
            attempted: 0,
            failed: 0,
        }
    }

    /// Supplies the reference result JSON of pool query `index`, settling
    /// the replies already seen for it.
    pub fn expect(&mut self, index: usize, result_json: String) {
        if let Some((seen, agreeing)) = self.first_seen[index].take() {
            if seen != result_json {
                self.failed += agreeing;
            }
        }
        self.expected[index] = Some(result_json);
    }

    /// Pool indices answered but not yet checked against a reference.
    #[must_use]
    pub fn unverified(&self) -> Vec<usize> {
        (0..self.first_seen.len())
            .filter(|&i| self.first_seen[i].is_some())
            .collect()
    }

    /// Checks the replies to one batch of pool `indices` (ids `1..=len`).
    pub fn check(&mut self, indices: &[usize], replies: &std::io::Result<Vec<Vec<u8>>>) {
        self.attempted += indices.len() as u64;
        let Ok(payloads) = replies else {
            self.failed += indices.len() as u64;
            return;
        };
        for (pos, &index) in indices.iter().enumerate() {
            let Some(json) = payloads
                .get(pos)
                .and_then(|p| ok_result_json(p, pos as u64 + 1))
            else {
                self.failed += 1;
                continue;
            };
            match (&self.expected[index], &mut self.first_seen[index]) {
                (Some(expected), _) => self.failed += u64::from(*expected != json),
                (None, Some((seen, agreeing))) if *seen == json => *agreeing += 1,
                (None, Some(_)) => self.failed += 1,
                (None, slot @ None) => *slot = Some((json, 1)),
            }
        }
    }
}

/// Reference result JSON for each query, from an in-process
/// [`ServeHarness`].
///
/// # Errors
///
/// Fails if any query is answered with an error: the workloads use only
/// queries that succeed.
pub fn reference_results(queries: &[Query]) -> Result<Vec<String>, String> {
    let harness = ServeHarness::new().map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(256) {
        for reply in harness.query_batch(chunk).map_err(|e| e.to_string())? {
            match reply {
                Reply::Ok { result, .. } => {
                    out.push(serde_json::to_string(&result).map_err(|e| e.to_string())?);
                }
                Reply::Error { error, .. } => {
                    return Err(format!("reference query failed: {}", error.message));
                }
            }
        }
    }
    Ok(out)
}

fn gather(pool: &[Query], indices: &[usize]) -> Vec<Query> {
    indices.iter().map(|&i| pool[i].clone()).collect()
}

/// The batches that warm a cache with the whole pool.
fn warm_batches(pool_len: usize) -> Vec<Vec<usize>> {
    (0..pool_len)
        .collect::<Vec<_>>()
        .chunks(BATCH_SIZE)
        .map(<[usize]>::to_vec)
        .collect()
}

/// What the timed closed loop observed.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Round-trip time of each answered batch.
    pub batch_ms: Vec<f64>,
    /// Queries answered.
    pub queries: u64,
    /// The answered batches, in order (kept only when asked for).
    pub sent: Vec<Vec<usize>>,
    /// The server's peak RSS, last sampled while it was alive.
    pub peak_rss_mib: Option<f64>,
    /// Whether the connection broke, ending the loop early.
    pub broken: bool,
}

/// Runs the closed loop for `seconds`, checking every reply.
///
/// A broken connection fails the batch in flight and ends the loop: the
/// queries it could not answer count as failures, never as a hang.
///
/// # Errors
///
/// Fails only if a batch cannot be encoded.
pub fn closed_loop(
    client: &mut Client,
    pool: &[Query],
    stream: &mut QueryStream,
    checker: &mut Checker,
    seconds: f64,
    server_pid: Option<u32>,
    keep_sent: bool,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let sample_rss = |stats: &mut LoopStats| {
        if let Some(mib) = server_pid.and_then(|pid| peak_rss_mib(Some(pid))) {
            stats.peak_rss_mib = Some(mib);
        }
    };
    while start.elapsed().as_secs_f64() < seconds {
        let indices = stream.next_batch();
        let wire =
            ServeHarness::encode_batch(&gather(pool, &indices)).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let replies = client.roundtrip(&wire, indices.len());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        checker.check(&indices, &replies);
        if replies.is_err() {
            stats.broken = true;
            break;
        }
        stats.batch_ms.push(ms);
        stats.queries += indices.len() as u64;
        if keep_sent {
            stats.sent.push(indices);
        }
        if stats.batch_ms.len() % BLOCK_BATCHES == 0 {
            sample_rss(&mut stats);
        }
    }
    sample_rss(&mut stats);
    Ok(stats)
}

/// A ready server: inputs built, process started, connected, and (hot)
/// cache warmed.
struct Prepared {
    pool: Vec<Query>,
    child: ServedChild,
    client: Client,
}

fn set_up(spec: &Spec, seed: u64, served: &Path) -> Result<Prepared, String> {
    let pool = query_pool(seed, spec)?;
    let child = ServedChild::served(served)?;
    let mut client = Client::connect(child.addr()).map_err(|e| format!("connect: {e}"))?;
    if spec.warm() {
        for batch in warm_batches(pool.len()) {
            let wire =
                ServeHarness::encode_batch(&gather(&pool, &batch)).map_err(|e| e.to_string())?;
            client
                .roundtrip(&wire, batch.len())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(Prepared {
        pool,
        child,
        client,
    })
}

/// Runs a serve workload.
///
/// # Errors
///
/// Fails when the benchmark itself cannot proceed: `served` does not
/// start, a reference query fails, or a batch cannot be encoded. Wrong or
/// missing replies are counted, not raised.
pub fn run(spec: &Spec, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let (
        Prepared {
            pool,
            child,
            mut client,
        },
        mut setup_s,
    ) = time_setups(|| set_up(spec, args.seed, &args.served))?;

    let mut checker = Checker::new(pool.len());
    if spec.warm() {
        for (i, json) in reference_results(&pool)?.into_iter().enumerate() {
            checker.expect(i, json);
        }
    }
    let mut stream = QueryStream::new(args.seed, spec);
    let stats = closed_loop(
        &mut client,
        &pool,
        &mut stream,
        &mut checker,
        args.seconds,
        Some(child.pid()),
        args.trace,
    )?;
    drop(client);
    drop(child);

    // Queries whose reference was not computed up front (the churn pool is
    // too large for that) are checked now, untimed.
    let pending = checker.unverified();
    for (i, json) in pending
        .iter()
        .zip(reference_results(&gather(&pool, &pending))?)
    {
        checker.expect(*i, json);
    }

    let mut outcome = Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        ..Outcome::default()
    };
    if args.trace {
        layer_metrics(spec, &pool, &stats, tracer, &mut outcome)?;
        return Ok(outcome);
    }
    // A second round of set-ups after the measured phase: the machine's
    // speed drifts over seconds to minutes, and set-ups timed on both
    // sides of the measured phase give a steadier median than one burst.
    setup_s.extend(time_setups(|| set_up(spec, args.seed, &args.served))?.1);
    let round_trip_s = stats.batch_ms.iter().sum::<f64>() / 1e3;
    let blocks: Vec<f64> = stats
        .batch_ms
        .chunks_exact(BLOCK_BATCHES)
        .map(|b| b.iter().sum::<f64>() / 1e3)
        .collect();
    outcome.set("setup_s", median(&setup_s));
    outcome.set("run_s", median(&blocks));
    outcome.set("qps", ratio(stats.queries as f64, round_trip_s));
    outcome.set("batch_p50_ms", quantile(&stats.batch_ms, 0.5));
    outcome.set("batch_p90_ms", quantile(&stats.batch_ms, 0.9));
    outcome.set("peak_rss_mb", stats.peak_rss_mib.unwrap_or(0.0));
    outcome.set("ok_ratio", 1.0 - outcome.fail_ratio());
    Ok(outcome)
}

/// What replaying one batch in process measured.
struct Replayed {
    stage_ms: f64,
    reply_bytes: u64,
    seconds: f64,
}

/// Replays one batch through the pieces `serve_stream` composes — frame
/// read, request parse, `Engine::handle_batch`, reply encode, frame write
/// — with a span around each.
fn replay(
    engine: &Engine,
    queries: &[Query],
    tracer: &Tracer,
    group: u64,
) -> Result<Replayed, String> {
    let start = Instant::now();
    tracer.root("bench.harness", group, || {
        let wire = tracer
            .span("bench.client", || ServeHarness::encode_batch(queries))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let payload = tracer
            .span("serve.frame", || read_frame(&mut Cursor::new(&wire)))
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        let batch: BatchRequest = tracer.span("serve.parse", || {
            std::str::from_utf8(&payload)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        })?;
        let replies = tracer.span("serve.batch", || engine.handle_batch(&batch.requests));
        let encoded = tracer
            .span("serve.encode", || {
                replies
                    .iter()
                    .map(serde_json::to_string)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let mut sink = Vec::new();
        tracer
            .span("serve.frame", || {
                encoded
                    .iter()
                    .try_for_each(|r| write_frame(&mut sink, r.as_bytes()))
            })
            .map_err(|e| e.to_string())?;
        let stage_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Replayed {
            stage_ms,
            reply_bytes: sink.len() as u64,
            seconds: start.elapsed().as_secs_f64(),
        })
    })
}

/// A fresh engine with `served`'s defaults, warmed as the server was.
fn replay_engine(spec: &Spec, pool: &[Query]) -> Result<Engine, String> {
    let engine = Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?;
    if spec.warm() {
        for batch in warm_batches(pool.len()) {
            replay(&engine, &gather(pool, &batch), &Tracer::new(false), 0)?;
        }
    }
    Ok(engine)
}

/// Per-layer metrics of a serve workload from an in-process replay of the
/// batches the timed loop sent, on a fresh engine fed exactly what the
/// server was fed, so its cache and solver counters are the server's.
fn layer_metrics(
    spec: &Spec,
    pool: &[Query],
    stats: &LoopStats,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    if stats.sent.is_empty() {
        return Err("the timed loop answered no batch".to_string());
    }
    // Two fresh engines, each fed exactly what the server was fed, replay
    // every batch in turn: one traced with the recorder installed, one
    // untraced for the overhead ratio and the socket subtraction.
    let traced_engine = replay_engine(spec, pool)?;
    let plain_engine = replay_engine(spec, pool)?;
    let cache = traced_engine.reply_cache();
    let (hits0, misses0, evictions0) = (cache.hits(), cache.misses(), cache.evictions());
    let recorder = Arc::new(CollectingRecorder::new());
    let off = Tracer::new(false);
    let (mut traced_s, mut plain_s, mut plain_stage_ms, mut reply_bytes) =
        (0.0, 0.0, Vec::new(), 0u64);
    for (group, indices) in stats.sent.iter().enumerate() {
        let queries = gather(pool, indices);
        telemetry::set_recorder(recorder.clone());
        let traced = replay(&traced_engine, &queries, tracer, group as u64);
        telemetry::clear_recorder();
        let traced = traced?;
        let plain = replay(&plain_engine, &queries, &off, group as u64)?;
        traced_s += traced.seconds;
        plain_s += plain.seconds;
        plain_stage_ms.push(plain.stage_ms);
        reply_bytes += traced.reply_bytes;
    }
    let counts = recorder.snapshot();

    let queries = stats.queries as f64;
    let batches = stats.sent.len() as f64;
    let own = tracer.self_seconds();
    let own_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    let socket_ms = mean(&stats.batch_ms) - mean(&plain_stage_ms);

    for (layer, metric) in [
        ("serve.frame", "serve.frame.us_per_query"),
        ("serve.parse", "serve.parse.us_per_query"),
        ("serve.batch", "serve.batch.us_per_query"),
        ("serve.encode", "serve.encode.us_per_query"),
        ("bench.client", "bench.client.us_per_query"),
    ] {
        outcome.set(metric, own_s(layer) / queries * 1e6);
    }
    outcome.set("serve.reply_bytes_per_query", reply_bytes as f64 / queries);
    outcome.set("serve.socket.ms_per_batch", socket_ms);
    outcome.set(
        "serve.reply_cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    outcome.set(
        "serve.reply_cache.evictions",
        (cache.evictions() - evictions0) as f64 / queries,
    );
    outcome.set(
        "serve.coalesced_ratio",
        counts.counter("serve.coalesced") as f64 / queries,
    );
    outcome.set_solver_metrics(&counts, queries);
    outcome.set("telemetry.overhead_ratio", traced_s / plain_s);

    // Self-time shares per batch; the socket path is the round trip minus
    // the in-process stages.
    let per_batch_ms = |name: &str| own_s(name) / batches * 1e3;
    let shares = [
        ("bench.harness.self_share", per_batch_ms("bench.harness")),
        ("bench.client.self_share", per_batch_ms("bench.client")),
        ("serve.socket.self_share", socket_ms.max(0.0)),
        ("serve.frame.self_share", per_batch_ms("serve.frame")),
        ("serve.parse.self_share", per_batch_ms("serve.parse")),
        ("serve.batch.self_share", per_batch_ms("serve.batch")),
        ("serve.encode.self_share", per_batch_ms("serve.encode")),
    ];
    let total: f64 = shares.iter().map(|(_, ms)| ms).sum();
    for (name, ms) in shares {
        outcome.set(name, ratio(ms, total));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_core::queries::QueryResult;

    fn result(window: u32) -> QueryResult {
        QueryResult::WcStar {
            window,
            utility: 1.0,
        }
    }

    fn ok(id: u64, window: u32) -> Vec<u8> {
        serde_json::to_string(&Reply::Ok {
            id,
            result: result(window),
        })
        .unwrap()
        .into_bytes()
    }

    #[test]
    fn late_references_settle_the_replies_seen_before_them() {
        let mut checker = Checker::new(2);
        checker.check(&[0, 1], &Ok(vec![ok(1, 5), ok(2, 7)]));
        // Query 0 now disagrees with its first reply.
        checker.check(&[1, 0], &Ok(vec![ok(1, 7), ok(2, 6)]));
        assert_eq!((checker.attempted, checker.failed), (4, 1));
        assert_eq!(checker.unverified(), vec![0, 1]);
        // Both replies to query 1 agreed with each other but are wrong.
        checker.expect(0, serde_json::to_string(&result(5)).unwrap());
        checker.expect(1, serde_json::to_string(&result(8)).unwrap());
        assert_eq!(checker.failed, 3);
        assert!(checker.unverified().is_empty());
    }

    #[test]
    fn wrong_ids_errors_and_broken_connections_fail() {
        let mut checker = Checker::new(1);
        checker.expect(0, serde_json::to_string(&result(5)).unwrap());
        checker.check(&[0], &Ok(vec![ok(2, 5)]));
        checker.check(&[0], &Ok(vec![b"not json".to_vec()]));
        checker.check(&[0, 0], &Err(std::io::Error::other("gone")));
        checker.check(&[0], &Ok(vec![ok(1, 5)]));
        assert_eq!((checker.attempted, checker.failed), (5, 4));
    }

    #[test]
    fn pools_are_seeded_distinct_and_batches_follow_the_mix() {
        let spec = Spec {
            per_kind: 17,
            skew: Some(1.0),
        };
        let pool = query_pool(4, &spec).unwrap();
        assert_eq!(pool, query_pool(4, &spec).unwrap());
        assert_ne!(pool, query_pool(5, &spec).unwrap());
        let keys: HashSet<String> = pool
            .iter()
            .map(|q| serde_json::to_string(q).unwrap())
            .collect();
        assert_eq!(keys.len(), 68);
        let mut stream = QueryStream::new(4, &spec);
        for _ in 0..10 {
            let batch = stream.next_batch();
            let per_kind: Vec<usize> = (0..KINDS)
                .map(|kind| {
                    let range = stratum(&spec, kind);
                    batch.iter().filter(|i| range.contains(i)).count()
                })
                .collect();
            assert_eq!(per_kind, MIX);
        }
    }
}
