//! The batch-query engine: coalescing, two-tier caching, deterministic
//! fan-out, reply assembly.
//!
//! # Pipeline (one batch)
//!
//! 1. **Key** every request by its query's [`QueryKey`]: the variant tag,
//!    the integer fields as they are and the `f64` fields' bit patterns.
//!    Keying writes no JSON.
//! 2. **Coalesce**: duplicate keys collapse to one unit of work in
//!    first-appearance order; every occurrence still gets its own reply.
//! 3. **Route**: each unique key checks the reply cache (a
//!    [`macgame_dcf::Memo`] counting `serve.cache.*`); misses are
//!    evaluated through [`macgame_core::queries::evaluate_query`] (class
//!    solves go through the per-mode sharded `SolveCache`) with the
//!    fixed-chunk executor, their result JSON is encoded once, and they
//!    are inserted into the reply cache *sequentially in miss order* so
//!    eviction order is deterministic.
//! 4. **Assemble** replies in request order: [`Engine::handle_batch`]
//!    returns typed [`Reply`]s; [`Engine::frame_replies`] and
//!    [`Engine::handle_payload`] return wire bytes, where every `Ok`
//!    reply splices the request id into the cached result JSON, so a
//!    cache hit serializes nothing.
//!
//! # Determinism
//!
//! Every step is a deterministic function of the batch: keys and
//! coalescing don't depend on timing, the executor's chunk boundaries
//! depend only on the miss count, joins preserve order, and cache hits
//! share the exact value (and bytes) a fresh evaluation produced. Hence
//! the reply byte stream is invariant under `MACGAME_THREADS` and under
//! duplicate coalescing — the property the conformance claims gate.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;

use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_core::GameError;
use macgame_dcf::memo::{fnv1a, ShardKey};
use macgame_dcf::parallel::resolve_threads;
use macgame_dcf::{AccessMode, Memo, MemoNames};
use macgame_telemetry as telemetry;

use crate::executor::map_chunked;
use crate::frame::write_frame;
use crate::protocol::{BatchRequest, ErrorKind, ErrorReply, Reply, Request};
use crate::ServeError;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for batch fan-out (`0` = auto from
    /// `MACGAME_THREADS`, resolved once when the engine is built: the
    /// lookup reads the environment and the CPU quota, about 20 µs, too
    /// slow to repeat per batch). Reply bytes do not depend on this.
    pub threads: usize,
    /// Capacity of the query → result reply cache (`0` = no-op cache).
    pub reply_cache_capacity: usize,
    /// Per-mode capacity of the class-solution `SolveCache`
    /// (`0` = no-op cache).
    pub solve_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 0, reply_cache_capacity: 4096, solve_cache_capacity: 4096 }
    }
}

/// A query's coalescing and reply-cache key, built field by field: the
/// variant as a tag, the access mode as its index, integer fields as they
/// are and `f64` fields by [`f64::to_bits`]. Unused slots stay zero.
///
/// Two wire queries get the same key exactly when their canonical JSON is
/// equal: a request can only carry finite floats, the JSON writer's float
/// output round-trips (so it is injective on them), and `0.0` and `-0.0`
/// differ in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryKey {
    tag: u8,
    mode: u8,
    players: u64,
    /// The variant's `u32` fields in declaration order.
    words: [u32; 3],
    /// The variant's `f64` field as bits.
    float_bits: u64,
}

impl QueryKey {
    fn of(query: &Query) -> Self {
        let key = |tag, players: usize, mode: AccessMode, words, float_bits| QueryKey {
            tag,
            mode: mode as u8,
            players: players as u64,
            words,
            float_bits,
        };
        match *query {
            Query::WcStar { players, mode, w_max } => key(0, players, mode, [w_max, 0, 0], 0),
            Query::EdcaWcStar { players, mode, txop, w_max } => {
                key(1, players, mode, [txop, w_max, 0], 0)
            }
            Query::NeInterval { players, mode, w_max } => key(2, players, mode, [w_max, 0, 0], 0),
            Query::DeviationPayoff { players, mode, w_star, w_dev, reaction_stages, delta_s } => {
                key(3, players, mode, [w_star, w_dev, reaction_stages], delta_s.to_bits())
            }
            Query::RobustnessCell { players, mode, window, reaction_stages, epsilon } => {
                key(4, players, mode, [window, reaction_stages, 0], epsilon.to_bits())
            }
        }
    }
}

impl ShardKey for QueryKey {
    /// FNV-1a over 30 bytes: tag, mode, then `players`, the three words
    /// and the float bits, each little-endian.
    fn shard_hash(&self) -> u64 {
        fnv1a(
            [self.tag, self.mode]
                .into_iter()
                .chain(self.players.to_le_bytes())
                .chain(self.words.iter().flat_map(|w| w.to_le_bytes()))
                .chain(self.float_bits.to_le_bytes()),
        )
    }
}

/// One reply-cache entry: a query's result and its JSON, encoded once
/// when the entry is made.
#[derive(Debug)]
pub struct CachedResult {
    result: QueryResult,
    json: Box<str>,
}

impl CachedResult {
    fn new(result: QueryResult) -> Self {
        let json = serde_json::to_string(&result)
            .expect("query results contain no unserializable values") // PANIC-POLICY: QueryResult is a closed type whose fields all serialize (programmer-error guard)
            .into_boxed_str();
        CachedResult { result, json }
    }
}

/// A long-running query engine. Share one behind an [`Arc`] across all
/// connections; all methods take `&self`.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    solve_caches: SolveCaches,
    replies: Memo<QueryKey, Arc<CachedResult>>,
}

impl Engine {
    /// Builds an engine from `config`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures from cache construction.
    pub fn new(config: EngineConfig) -> Result<Self, ServeError> {
        Ok(Engine {
            threads: resolve_threads(config.threads),
            solve_caches: SolveCaches::with_capacity(config.solve_cache_capacity)?,
            replies: Memo::bounded(
                config.reply_cache_capacity,
                MemoNames {
                    hits: Some("serve.cache.hits"),
                    misses: Some("serve.cache.misses"),
                    evictions: Some("serve.cache.evictions"),
                },
            ),
        })
    }

    /// The query → result reply cache, keyed by [`QueryKey`] and holding
    /// each result with its encoded JSON; exposed for telemetry and tests.
    #[must_use]
    pub fn reply_cache(&self) -> &Memo<QueryKey, Arc<CachedResult>> {
        &self.replies
    }

    /// The per-mode solve caches, exposed for telemetry and tests.
    #[must_use]
    pub fn solve_caches(&self) -> &SolveCaches {
        &self.solve_caches
    }

    /// Evaluates one batch, returning one reply per request in request
    /// order. Duplicate queries are coalesced into a single evaluation;
    /// their replies are bitwise-identical to fresh evaluations.
    #[must_use]
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Reply> {
        requests
            .iter()
            .zip(self.resolve(requests))
            .map(|(request, outcome)| match outcome {
                Ok(cached) => Reply::Ok { id: request.id, result: cached.result.clone() },
                Err(error) => Reply::Error { id: Some(request.id), error },
            })
            .collect()
    }

    /// Decodes one frame payload and evaluates it, returning the
    /// serialized reply payloads to frame back, in request order. A
    /// payload that is not a valid [`BatchRequest`] yields exactly one
    /// [`ErrorKind::MalformedJson`] reply with `id: null`.
    #[must_use]
    pub fn handle_payload(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut replies = Vec::new();
        let done: Result<(), Infallible> = self.encode_replies(payload, |reply| {
            replies.push(reply.to_vec());
            Ok(())
        });
        match done {
            Ok(()) => replies,
            Err(never) => match never {},
        }
    }

    /// Like [`Engine::handle_payload`], but appends each reply to `out`
    /// as a whole frame, so a connection can send a batch's replies in
    /// one write.
    ///
    /// # Errors
    ///
    /// A reply above [`crate::frame::MAX_FRAME_LEN`] is not framed; the
    /// error is returned and the replies after it are dropped.
    pub fn frame_replies(&self, payload: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
        self.encode_replies(payload, |reply| write_frame(out, reply))
    }

    /// Resolves `payload` and hands each encoded reply to `emit`, in
    /// request order.
    fn encode_replies<E>(
        &self,
        payload: &[u8],
        mut emit: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let parsed: Result<BatchRequest, String> = match std::str::from_utf8(payload) {
            Ok(text) => serde_json::from_str(text).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let batch = match parsed {
            Ok(batch) => batch,
            Err(message) => {
                telemetry::counter("serve.errors", 1);
                let message = bounded_message(message);
                let error = ErrorReply { kind: ErrorKind::MalformedJson, message };
                return emit(&encode_reply(&Reply::Error { id: None, error }));
            }
        };
        let mut reply = Vec::new();
        for (request, outcome) in batch.requests.iter().zip(self.resolve(&batch.requests)) {
            reply.clear();
            match outcome {
                Ok(cached) => splice_ok(&mut reply, request.id, &cached.json),
                Err(error) => {
                    reply.extend(encode_reply(&Reply::Error { id: Some(request.id), error }));
                }
            }
            emit(&reply)?;
        }
        Ok(())
    }

    /// Keys, coalesces and routes one batch, returning each request's
    /// cached result or structured error, in request order.
    fn resolve(&self, requests: &[Request]) -> Vec<Result<Arc<CachedResult>, ErrorReply>> {
        telemetry::counter("serve.batches", 1);
        telemetry::counter("serve.queries", requests.len() as u64);

        // Coalesce: key → index into `unique`, first appearance fixes the
        // order.
        let mut key_to_unique: BTreeMap<QueryKey, usize> = BTreeMap::new();
        let mut unique: Vec<(QueryKey, &Query)> = Vec::new();
        let request_slots: Vec<usize> = requests
            .iter()
            .map(|request| {
                let key = QueryKey::of(&request.query);
                *key_to_unique.entry(key).or_insert_with(|| {
                    unique.push((key, &request.query));
                    unique.len() - 1
                })
            })
            .collect();
        telemetry::counter("serve.coalesced", (requests.len() - unique.len()) as u64);

        // Route uniques through the reply cache; evaluate the misses with
        // the fixed-chunk executor.
        let mut resolved: Vec<Option<Result<Arc<CachedResult>, GameError>>> =
            unique.iter().map(|(key, _)| self.replies.get(key).map(Ok)).collect();
        let miss_indices: Vec<usize> =
            (0..unique.len()).filter(|&i| resolved[i].is_none()).collect();
        let evaluated: Vec<Result<QueryResult, GameError>> =
            map_chunked(miss_indices.clone(), self.threads, |&i| {
                evaluate_query(unique[i].1, &self.solve_caches)
            });
        // Insert sequentially in miss order (deterministic eviction),
        // encoding each result's JSON once, here on the calling thread.
        for (&i, outcome) in miss_indices.iter().zip(evaluated) {
            let stored = outcome
                .map(|value| self.replies.insert(unique[i].0, Arc::new(CachedResult::new(value))));
            resolved[i] = Some(stored);
        }

        request_slots
            .into_iter()
            .map(|i| match resolved[i].as_ref().expect("every unique slot resolved above") { // PANIC-POLICY: slot invariant established two loops up (programmer-error guard)
                Ok(cached) => Ok(Arc::clone(cached)),
                Err(e) => {
                    telemetry::counter("serve.errors", 1);
                    Err(ErrorReply { kind: ErrorKind::Evaluation, message: e.to_string() })
                }
            })
            .collect()
    }
}

/// Longest parse-error message a `MalformedJson` reply echoes, in bytes.
/// The parser quotes the offending token, so an unbounded echo of a
/// frame-sized token would make a reply too large to frame.
const MAX_ERROR_MESSAGE: usize = 256;

/// Cuts `message` to at most [`MAX_ERROR_MESSAGE`] bytes at a char
/// boundary, marking a cut with `…`.
fn bounded_message(mut message: String) -> String {
    if message.len() > MAX_ERROR_MESSAGE {
        let mut cut = MAX_ERROR_MESSAGE;
        while !message.is_char_boundary(cut) {
            cut -= 1;
        }
        message.truncate(cut);
        message.push('…');
    }
    message
}

/// Serializes one reply payload. Infallible by construction: every reply
/// type serializes through the vendored tree model.
pub(crate) fn encode_reply(reply: &Reply) -> Vec<u8> {
    serde_json::to_string(reply)
        .expect("replies contain no unserializable values") // PANIC-POLICY: Reply is a closed type whose fields all serialize (programmer-error guard)
        .into_bytes()
}

/// Writes `{"Ok":{"id":<id>,"result":<result_json>}}` to `out`: the bytes
/// `serde_json` writes for [`Reply::Ok`], without building the reply.
fn splice_ok(out: &mut Vec<u8>, id: u64, result_json: &str) {
    out.extend_from_slice(br#"{"Ok":{"id":"#);
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = id;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
    out.extend_from_slice(br#","result":"#);
    out.extend_from_slice(result_json.as_bytes());
    out.extend_from_slice(b"}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default()).unwrap()
    }

    fn wc(players: usize) -> Query {
        Query::WcStar { players, mode: AccessMode::Basic, w_max: 4096 }
    }

    #[test]
    fn replies_come_back_in_request_order_with_echoed_ids() {
        let e = engine();
        let requests: Vec<Request> = [wc(5), wc(10), wc(5)]
            .into_iter()
            .enumerate()
            .map(|(i, query)| Request { id: 100 + i as u64, query })
            .collect();
        let replies = e.handle_batch(&requests);
        assert_eq!(replies.len(), 3);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.id(), Some(100 + i as u64));
            assert!(reply.is_ok());
        }
    }

    #[test]
    fn duplicates_coalesce_to_one_evaluation_with_identical_replies() {
        let e = engine();
        let query = Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.0,
        };
        let requests: Vec<Request> =
            (0..8).map(|i| Request { id: i, query: query.clone() }).collect();
        let replies = e.handle_batch(&requests);
        let (_, misses, _) = e.solve_caches().counters();
        // All eight requests collapse to one unit of work; the reply
        // cache saw one miss for the unique key, and the class solves
        // behind it went through the sharded solve cache.
        assert_eq!(e.reply_cache().misses(), 1);
        assert!(misses > 0);
        let Reply::Ok { result: first, .. } = &replies[0] else { panic!("expected Ok") };
        for reply in &replies[1..] {
            let Reply::Ok { result, .. } = reply else { panic!("expected Ok") };
            assert_eq!(result, first);
        }
    }

    #[test]
    fn evaluation_errors_are_structured_not_fatal() {
        let e = engine();
        let requests = vec![
            Request { id: 1, query: wc(0) }, // invalid: zero players
            Request { id: 2, query: wc(5) },
        ];
        let replies = e.handle_batch(&requests);
        assert!(matches!(
            &replies[0],
            Reply::Error { id: Some(1), error } if error.kind == ErrorKind::Evaluation
        ));
        assert!(replies[1].is_ok(), "a bad request must not poison its batch neighbors");
    }

    #[test]
    fn malformed_payload_yields_one_null_id_error_reply() {
        let e = engine();
        for payload in [&b"not json"[..], &[0xFF, 0xFE][..], b"{\"requests\": 3}"] {
            let replies = e.handle_payload(payload);
            assert_eq!(replies.len(), 1, "payload {payload:?}");
            let reply: Reply =
                serde_json::from_str(std::str::from_utf8(&replies[0]).unwrap()).unwrap();
            assert!(matches!(
                reply,
                Reply::Error { id: None, ref error } if error.kind == ErrorKind::MalformedJson
            ));
        }
    }

    #[test]
    fn hot_batch_hits_the_reply_cache() {
        let e = engine();
        let requests: Vec<Request> =
            (0..4).map(|i| Request { id: i, query: wc(5 + i as usize) }).collect();
        let cold = e.handle_batch(&requests);
        let misses_after_cold = e.reply_cache().misses();
        let hot = e.handle_batch(&requests);
        assert_eq!(e.reply_cache().misses(), misses_after_cold, "hot batch must not miss");
        assert_eq!(e.reply_cache().hits(), 4);
        assert_eq!(cold, hot, "hits are bitwise-identical to fresh evaluations");
    }

    /// Floats whose JSON spellings sit close together: both zeros,
    /// subnormals, each centre with its two neighbours, and both sides of
    /// the writer's switch from `{:.1}` to shortest output at 1e15.
    fn edge_floats() -> Vec<f64> {
        let mut floats = vec![0.0, -0.0, f64::from_bits(1), f64::from_bits(2)];
        for x in [f64::MIN_POSITIVE, 1e-9, 0.1, 0.5, 1e15] {
            let bits = x.to_bits();
            floats.extend([f64::from_bits(bits - 1), x, f64::from_bits(bits + 1)]);
        }
        floats
    }

    /// Half the draws from [`edge_floats`] (so pairs collide often), half
    /// any finite bit pattern.
    fn float() -> impl Strategy<Value = f64> {
        let edges = edge_floats();
        (0..edges.len() * 2, 0u64..=u64::MAX).prop_map(move |(i, bits)| {
            edges.get(i).copied().unwrap_or_else(|| {
                let x = f64::from_bits(bits);
                if x.is_finite() {
                    x
                } else {
                    0.5
                }
            })
        })
    }

    /// The fields a generated query is built from; which of them a
    /// variant uses depends on `kind`.
    #[derive(Debug, Clone, Copy)]
    struct Fields {
        kind: u8,
        players: usize,
        words: [u32; 3],
        x: f64,
    }

    impl Fields {
        fn query(self) -> Query {
            let Fields { kind, players, words: w, x } = self;
            let mode = if kind % 2 == 0 { AccessMode::Basic } else { AccessMode::RtsCts };
            match kind / 2 {
                0 => Query::WcStar { players, mode, w_max: w[0] },
                1 => Query::EdcaWcStar { players, mode, txop: w[0], w_max: w[1] },
                2 => Query::NeInterval { players, mode, w_max: w[0] },
                3 => Query::DeviationPayoff {
                    players,
                    mode,
                    w_star: w[0],
                    w_dev: w[1],
                    reaction_stages: w[2],
                    delta_s: x,
                },
                _ => Query::RobustnessCell {
                    players,
                    mode,
                    window: w[0],
                    reaction_stages: w[1],
                    epsilon: x,
                },
            }
        }
    }

    /// Two queries that differ in at most one field, mostly by the
    /// smallest step: the next mode or variant, any variant, an integer
    /// plus one, the float's sign, its neighbour, or another float. A field the variant does
    /// not use may change too, leaving the queries equal.
    fn query_pair() -> impl Strategy<Value = (Query, Query)> {
        let fields = (0u8..10, 0usize..3, prop::collection::vec(0u32..3, 3), float())
            .prop_map(|(kind, players, w, x)| {
                Fields { kind, players, words: [w[0], w[1], w[2]], x }
            });
        (fields, 0u8..9, float(), 0u8..10).prop_map(|(a, edit, y, kind)| {
            let mut b = a;
            match edit {
                0 => b.kind = (a.kind + 1) % 10,
                1 => b.kind = kind,
                2 => b.players += 1,
                3..=5 => b.words[usize::from(edit - 3)] += 1,
                6 => b.x = -a.x,
                7 => b.x = f64::from_bits(a.x.to_bits() ^ 1),
                _ => b.x = y,
            }
            (a.query(), b.query())
        })
    }

    /// Results of every variant, with `None` options and non-finite floats.
    fn result() -> impl Strategy<Value = QueryResult> {
        (0u8..5, 0u32..=u32::MAX, prop::collection::vec(float(), 5), 0u8..4).prop_map(
            |(kind, w, x, flags)| match kind {
                0 => QueryResult::WcStar { window: w, utility: x[0] },
                1 => QueryResult::EdcaWcStar { window: w, utility: x[0], txop: w / 3 },
                2 => QueryResult::NeInterval { lower: w / 2, upper: w, count: w / 2 + 1 },
                3 => QueryResult::DeviationPayoff {
                    w_s: w,
                    deviant_payoff: x[0],
                    compliant_payoff: x[1],
                    victim_payoff: if flags == 0 { f64::NAN } else { x[2] },
                    gain: x[3],
                    profitable: flags % 2 == 1,
                },
                _ => QueryResult::RobustnessCell {
                    window: w,
                    is_ne: flags % 2 == 0,
                    best_deviation_window: (flags >= 2).then_some(w / 5),
                    best_deviation_gain: (flags >= 2).then_some(x[1]),
                    welfare_fraction: if flags == 1 { f64::INFINITY } else { x[4] },
                },
            },
        )
    }

    fn id() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(pick, random)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => random % 1000,
            _ => random,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn typed_keys_are_equal_exactly_when_query_json_is(pair in query_pair()) {
            let (a, b) = pair;
            let json = |q: &Query| serde_json::to_string(q).unwrap();
            let same_json = json(&a) == json(&b);
            prop_assert_eq!(QueryKey::of(&a) == QueryKey::of(&b), same_json, "{:?} vs {:?}", a, b);
        }

        #[test]
        fn spliced_ok_replies_match_serde(id in id(), result in result()) {
            let mut spliced = Vec::new();
            splice_ok(&mut spliced, id, &CachedResult::new(result.clone()).json);
            let expected = serde_json::to_string(&Reply::Ok { id, result }).unwrap();
            prop_assert_eq!(String::from_utf8(spliced).unwrap(), expected);
        }
    }

    #[test]
    fn query_key_shard_hash_is_pinned() {
        let key = QueryKey::of(&Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::RtsCts,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.5,
        });
        let mut encoding = vec![3, 1];
        encoding.extend(5u64.to_le_bytes());
        for word in [79u32, 20, 1] {
            encoding.extend(word.to_le_bytes());
        }
        encoding.extend(0.5f64.to_bits().to_le_bytes());
        assert_eq!(encoding.len(), 30);
        assert_eq!(key.shard_hash(), fnv1a(encoding));
        assert_eq!(key.shard_hash(), 8_159_460_926_143_596_791);
    }

    #[test]
    fn zero_and_negative_zero_are_separate_keys_and_evaluations() {
        let e = engine();
        let deviation = |delta_s| Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s,
        };
        let requests: Vec<Request> = [deviation(0.0), deviation(-0.0)]
            .into_iter()
            .enumerate()
            .map(|(i, query)| Request { id: i as u64, query })
            .collect();
        let replies = e.handle_batch(&requests);
        assert!(replies.iter().all(Reply::is_ok));
        assert_eq!(e.reply_cache().misses(), 2);
    }

    #[test]
    fn payload_replies_equal_serialized_batch_replies() {
        let e = engine();
        let requests = vec![
            Request { id: 0, query: wc(5) },
            Request { id: u64::MAX, query: wc(5) },
            Request { id: 7, query: wc(0) },
        ];
        let payload = serde_json::to_string(&BatchRequest { requests: requests.clone() }).unwrap();
        for _pass in 0..2 {
            let expected: Vec<Vec<u8>> =
                e.handle_batch(&requests).iter().map(encode_reply).collect();
            assert_eq!(e.handle_payload(payload.as_bytes()), expected);
            let mut framed = Vec::new();
            e.frame_replies(payload.as_bytes(), &mut framed).unwrap();
            let mut expected_frames = Vec::new();
            for reply in &expected {
                write_frame(&mut expected_frames, reply).unwrap();
            }
            assert_eq!(framed, expected_frames);
        }
    }
}
