//! Process-global recorder facade used by instrumented code.
//!
//! The facade keeps the uninstrumented path essentially free: every entry
//! point first checks a relaxed [`AtomicBool`] and returns immediately when
//! no recorder is installed, so permanent instrumentation in hot loops does
//! not perturb benchmarks or artifact bytes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::recorder::Recorder;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global telemetry sink.
///
/// Replaces any previously installed recorder. Callers that need exclusive
/// snapshots (e.g. tests) should serialize install/run/clear sequences
/// themselves — the facade is a single global.
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap() = Some(recorder); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    ENABLED.store(true, Ordering::Release);
}

/// Remove the global recorder, restoring the zero-cost no-op behaviour.
pub fn clear_recorder() {
    ENABLED.store(false, Ordering::Release);
    *RECORDER.write().unwrap() = None; // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
}

/// Whether a recorder is currently installed.
pub fn recorder_installed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(recorder) = RECORDER.read().unwrap().as_deref() { // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        f(recorder);
    }
}

/// Add `delta` to the global counter `name` (no-op when uninstrumented).
pub fn counter(name: &'static str, delta: u64) {
    with_recorder(|r| r.counter_add(name, delta));
}

/// A monotonic count owned by one object (a cache's hits, say) that also
/// reports every increment to the global counter `name`, when it has one.
///
/// The local total is exact whether or not a recorder is installed; it is
/// a diagnostic read by the owner's accessors and tests, so the relaxed
/// ordering orders no other memory access.
#[derive(Debug)]
pub struct Counter {
    name: Option<&'static str>,
    total: AtomicU64,
}

impl Counter {
    /// A zeroed count reporting under `name` (`None`: local only).
    #[must_use]
    pub const fn new(name: Option<&'static str>) -> Self {
        Counter { name, total: AtomicU64::new(0) }
    }

    /// Adds one to the local total and to the global counter.
    pub fn incr(&self) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Some(name) = self.name {
            counter(name, 1);
        }
    }

    /// The local total so far.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Set the global gauge `name` (no-op when uninstrumented).
///
/// Per the determinism policy, only call this from serial driver code.
pub fn gauge(name: &'static str, value: f64) {
    with_recorder(|r| r.gauge_set(name, value));
}

/// Record `value` into the global histogram `name` (no-op when
/// uninstrumented).
pub fn histogram(name: &'static str, value: f64) {
    with_recorder(|r| r.histogram_record(name, value));
}

/// Record a wall-clock duration of `nanos` nanoseconds for span `name`
/// (no-op when uninstrumented). Usually called via [`span`]'s RAII guard.
pub fn timing(name: &'static str, nanos: u64) {
    with_recorder(|r| r.timing_record(name, nanos));
}

/// Start a scoped wall-clock span; the elapsed time is recorded under
/// `name` when the returned guard drops.
///
/// When no recorder is installed the guard holds no timestamp and its drop
/// is a no-op, so spans are as cheap as the other facade calls.
#[must_use = "a span records its duration when dropped"]
pub fn span(name: &'static str) -> Span {
    let start = if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    };
    Span { name, start }
}

/// RAII guard returned by [`span`]; records the elapsed wall-clock time on
/// drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timing(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectingRecorder;

    #[test]
    fn facade_routes_to_installed_recorder_and_no_ops_after_clear() {
        let recorder = Arc::new(CollectingRecorder::new());
        set_recorder(recorder.clone());
        assert!(recorder_installed());
        counter("global.count", 5);
        gauge("global.gauge", 2.5);
        histogram("global.hist", 10.0);
        {
            let _span = span("global.span");
        }
        clear_recorder();
        assert!(!recorder_installed());
        counter("global.count", 99);

        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("global.count"), 5);
        assert_eq!(snapshot.gauge("global.gauge"), Some(2.5));
        assert_eq!(snapshot.histogram("global.hist").unwrap().count, 1);
        assert_eq!(snapshot.timing("global.span").unwrap().count, 1);
    }

    #[test]
    fn counter_keeps_an_exact_local_total() {
        let named = Counter::new(Some("global.counter_type"));
        let local = Counter::new(None);
        for _ in 0..3 {
            named.incr();
            local.incr();
        }
        assert_eq!((named.get(), local.get()), (3, 3));
    }
}
