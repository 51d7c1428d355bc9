//! Golden reply stream: one fixed wire input (`golden/replies.wire`) and
//! the exact reply bytes `served` answered it with (`golden/replies.bin`).
//!
//! The input covers every query kind in both access modes, a duplicated
//! query, `delta_s` as `0.0` and `-0.0`, an invalid `players: 0`, a
//! garbage frame, invalid UTF-8, an oversized prefix followed by resync,
//! a cache-hitting second batch, an empty batch and a truncated tail
//! (`golden/make_wire.py` writes it). Any change to keying, caching,
//! reply encoding or framing that moves one reply byte fails here.

use macgame_serve::{EngineConfig, ServeHarness};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn reply_stream_matches_the_golden_bytes_at_every_thread_count() {
    let wire = fixture("replies.wire");
    let expected = fixture("replies.bin");
    for threads in [1, 2, 8] {
        let harness =
            ServeHarness::with_config(EngineConfig { threads, ..EngineConfig::default() })
                .unwrap();
        let cold = harness.roundtrip_raw(&wire).unwrap();
        assert!(cold == expected, "cold reply stream diverged at threads={threads}");
        // The second pass answers every valid query from the reply cache.
        let hot = harness.roundtrip_raw(&wire).unwrap();
        assert!(hot == expected, "hot reply stream diverged at threads={threads}");
    }
}
