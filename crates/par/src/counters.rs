//! Global, low-overhead thread-pool counters.
//!
//! Disabled by default: every primitive pays one relaxed atomic load per
//! *call* (not per element or per chunk), so the disabled path is
//! unmeasurable next to even a small sweep. Enable around a run with
//! [`enable`], then [`snapshot`] the totals into an
//! [`sr_obs::PoolCounters`] for a `RUNS_*.json` report.
//!
//! Counters are process-global and updated with relaxed atomics — they are
//! telemetry, not synchronization. Per-worker busy time is measured only
//! while counters are enabled, so the instant reads never touch the
//! disabled path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static CHUNKS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static PAR_CALLS: AtomicU64 = AtomicU64::new(0);
static SEQ_CALLS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static PREFETCHED_CHUNKS: AtomicU64 = AtomicU64::new(0);
static PREFETCHED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Starts counting pool activity (including per-worker busy time).
pub fn enable() {
    ENABLED.store(true, Relaxed); // lint-ok(atomic-ordering): on/off flag; a late observer only delays counting
}

/// Stops counting; primitives go back to one relaxed load per call.
pub fn disable() {
    ENABLED.store(false, Relaxed); // lint-ok(atomic-ordering): on/off flag; a late observer only counts a little extra
}

/// Whether counters are currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed) // lint-ok(atomic-ordering): advisory flag read, gates no data
}

/// Zeroes every counter (the enabled state is unchanged).
pub fn reset() {
    for c in [
        &TASKS_SPAWNED,
        &CHUNKS_PROCESSED,
        &PAR_CALLS,
        &SEQ_CALLS,
        &BUSY_NANOS,
        &PREFETCHED_CHUNKS,
        &PREFETCHED_BYTES,
    ] {
        c.store(0, Relaxed); // lint-ok(atomic-ordering): counters are telemetry, reset needs no ordering
    }
}

/// Snapshot of the totals accumulated since the last [`reset`].
pub fn snapshot() -> sr_obs::PoolCounters {
    sr_obs::PoolCounters {
        // lint-ok(atomic-ordering): snapshot of monotone telemetry counters —
        // tearing across fields is acceptable, nothing downstream gates on it
        tasks_spawned: TASKS_SPAWNED.load(Relaxed),
        chunks_processed: CHUNKS_PROCESSED.load(Relaxed),
        par_calls: PAR_CALLS.load(Relaxed),
        seq_calls: SEQ_CALLS.load(Relaxed),
        busy_nanos: BUSY_NANOS.load(Relaxed),
        prefetched_chunks: PREFETCHED_CHUNKS.load(Relaxed),
        prefetched_bytes: PREFETCHED_BYTES.load(Relaxed),
    }
}

/// A prefetcher staged `chunks` chunks totalling `bytes` bytes ahead of the
/// compute stage. Public so I/O layers outside this crate (e.g. the sharded
/// solve engine) can report decode-ahead activity.
pub fn note_prefetched(chunks: u64, bytes: u64) {
    if enabled() {
        PREFETCHED_CHUNKS.fetch_add(chunks, Relaxed); // lint-ok(atomic-ordering): telemetry counter
        PREFETCHED_BYTES.fetch_add(bytes, Relaxed); // lint-ok(atomic-ordering): telemetry counter
    }
}

/// A primitive stayed on the calling thread, processing `chunks` chunks
/// inline.
pub(crate) fn note_seq(chunks: u64) {
    if enabled() {
        SEQ_CALLS.fetch_add(1, Relaxed); // lint-ok(atomic-ordering): telemetry counter
        CHUNKS_PROCESSED.fetch_add(chunks, Relaxed); // lint-ok(atomic-ordering): telemetry counter
    }
}

/// A primitive forked over `chunks` chunks, spawning `spawned` threads
/// beside the calling thread, which runs one part itself.
pub(crate) fn note_par(spawned: u64, chunks: u64) {
    if enabled() {
        PAR_CALLS.fetch_add(1, Relaxed); // lint-ok(atomic-ordering): telemetry counter
        TASKS_SPAWNED.fetch_add(spawned, Relaxed); // lint-ok(atomic-ordering): telemetry counter
        CHUNKS_PROCESSED.fetch_add(chunks, Relaxed); // lint-ok(atomic-ordering): telemetry counter
    }
}

/// A worker — a spawned thread or the calling thread running its own
/// part — finished after `nanos` of busy time (callers gate on [`enabled`]
/// before timing).
pub(crate) fn note_busy(nanos: u64) {
    BUSY_NANOS.fetch_add(nanos, Relaxed); // lint-ok(atomic-ordering): telemetry counter
}
