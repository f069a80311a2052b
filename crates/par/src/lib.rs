#![warn(missing_docs)]

//! # sr-par — minimal data-parallel runtime
//!
//! A std-only replacement for the slice of rayon this workspace used: scoped
//! fork/join over *pre-partitioned* index ranges. The solver hot path wants
//! exactly this shape — each worker owns one edge-balanced chunk of the
//! output vector per sweep — so a general work-stealing pool buys nothing
//! here, and dropping the dependency keeps the build fully offline.
//!
//! Design points:
//!
//! * **Deterministic combine order.** Every reduction combines per-chunk
//!   partials in chunk order, so results are reproducible regardless of
//!   thread scheduling. The *block* helpers ([`for_each_block`],
//!   [`map_reduce_blocks`]) fix their chunk count by [`PAR_THRESHOLD`]
//!   alone, so floating-point results are bit-identical across thread
//!   counts (1 thread ≡ 8 threads).
//! * **Fork only where it pays.** A fork spawns fresh OS threads inside
//!   `std::thread::scope`. On a 2-vCPU host an empty 2-part fork/join
//!   takes 30–50 µs, and a 2-part region of real work ran 0.07–0.6 ms
//!   slower than inline on vectors and crawls of 15k–60k nodes: more than
//!   the work inside most regions of a source-level solve. So a region
//!   forks only once its work passes a cutover: [`FORK_MIN_ELEMENTS`]
//!   elements touched for a vector pass (n·K for a K-column panel),
//!   [`FORK_MIN_EDGES`] edges for a sparse gather (the operators count
//!   those when they partition). Below it the region is a plain loop on the
//!   calling thread. A region that forks runs one part on the calling
//!   thread and spawns `threads − 1` threads for the rest. The cutover only
//!   picks the thread that runs a block, never the block boundaries, so it
//!   never moves a bit. `bench_kernels` prints the fork cost and the
//!   crossover it implies. A parked pool would save the spawns, but running
//!   borrowed closures on long-lived threads needs `unsafe` lifetime
//!   erasure, which the workspace forbids.
//! * **Thread count** comes from `std::thread::available_parallelism`, can
//!   be pinned with the `SR_THREADS` environment variable, and can be
//!   overridden per-scope with [`with_threads`] (used by the scaling bench).
//! * **Observable.** The [`counters`] module counts threads spawned, chunks
//!   processed, forked and inline calls, prefetch activity, and per-worker
//!   busy time — disabled by default at the cost of one relaxed atomic load
//!   per call.
//! * **Decode-ahead.** The [`mod@pipeline`] module overlaps a fill stage (I/O)
//!   with an in-order consume stage (compute) over a small ring of recycled
//!   buffers — the primitive behind the out-of-core solver's shard
//!   prefetcher.

pub mod counters;
pub mod pipeline;

pub use pipeline::pipeline_while;

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// The reduction block: [`map_reduce_blocks`], and every caller of
/// [`for_each_block`] that folds float partials, work over fixed blocks of
/// this many elements and combine the block partials in block order, so
/// float results depend on the vector length alone, never on the thread
/// count. Whether a region forks is decided by [`FORK_MIN_ELEMENTS`] and
/// [`FORK_MIN_EDGES`], not by this constant.
pub const PAR_THRESHOLD: usize = 4096;

/// Fewest elements a vector pass touches before it forks: the length of the
/// data a helper splits (n·K for a K-column panel). Below it a fork costs
/// more than it saves on a 2-vCPU host; `bench_kernels`' `fork` section
/// prints the measured crossover beside this value.
pub const FORK_MIN_ELEMENTS: usize = 1 << 18;

/// Fewest edges a sparse gather reads before its operator partitions it
/// into one chunk per thread. Below it the operator keeps one chunk and its
/// gather runs inline; `bench_kernels`' `fork` section prints the measured
/// crossover beside this value.
pub const FORK_MIN_EDGES: usize = 1 << 21;

fn detected_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if let Ok(v) = std::env::var("SR_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel helpers will use on this thread
/// (≥ 1). Honors [`with_threads`] overrides, then `SR_THREADS`, then the
/// detected hardware parallelism.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        detected_threads()
    }
}

/// Runs `f` with the effective thread count pinned to `threads` (for the
/// current thread only). Used by the strong-scaling bench to sweep thread
/// counts without re-launching the process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let threads = threads.max(1);
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads));
    let out = f();
    THREAD_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Splits `0..len` into `parts` near-equal contiguous ranges (the leading
/// `len % parts` ranges are one longer). `parts` is clamped to `1..=len`
/// unless `len == 0`, in which case a single empty range is returned.
pub fn even_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    let mut at = 0;
    bounds.push(0);
    for i in 0..parts {
        at += base + usize::from(i < extra);
        bounds.push(at);
    }
    bounds
}

/// Scales every bound by `factor`: converts row bounds into element bounds
/// for a row-major panel holding `factor` values per row (the SpMM layout).
/// The scaled partition keeps the same chunk structure as the row partition,
/// so a panel sweep lands on exactly the rows its single-vector counterpart
/// would.
pub fn scaled_bounds(bounds: &[usize], factor: usize) -> Vec<usize> {
    bounds.iter().map(|&b| b * factor).collect()
}

/// Runs one worker's body and, when `timed`, adds its wall time to the
/// pool's busy-time counter.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "opt-in busy-time counter for pool telemetry; never observed by solve results"
)]
fn busy_timed(timed: bool, body: impl FnOnce()) {
    let t0 = timed.then(Instant::now);
    body();
    if let Some(t) = t0 {
        counters::note_busy(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// The one fork of the crate: runs `f(i, part)` for every part, grouped into
/// at most `threads` contiguous runs of parts. The calling thread runs the
/// first run itself and one scoped thread runs each other run, so the
/// region spawns `runs − 1` threads. Returns the results in part order.
fn fork<P, R, F>(parts: Vec<P>, threads: usize, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let count = parts.len();
    let runs = even_bounds(count, threads);
    counters::note_par((runs.len() - 2) as u64, count as u64);
    let timed = counters::enabled();
    let f = &f;
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    let mut parts = parts.into_iter();
    std::thread::scope(|scope| {
        let mut slots: &mut [Option<R>] = &mut out;
        let mut jobs = runs.windows(2).map(|w| {
            let (head, tail) = std::mem::take(&mut slots).split_at_mut(w[1] - w[0]);
            slots = tail;
            let run: Vec<P> = parts.by_ref().take(head.len()).collect();
            let first = w[0];
            move || {
                busy_timed(timed, || {
                    for (k, (slot, part)) in head.iter_mut().zip(run).enumerate() {
                        *slot = Some(f(first + k, part));
                    }
                });
            }
        });
        let caller_run = jobs.next();
        for job in jobs {
            scope.spawn(job);
        }
        if let Some(job) = caller_run {
            job();
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Runs `f(part_index, part_slice)` for each part of `data` delimited by
/// `bounds`, returning the per-part results **in part order**. The parts
/// run in parallel when `data` holds at least [`FORK_MIN_ELEMENTS`]
/// elements and there are several parts and threads; otherwise they run in
/// order on the calling thread.
///
/// `bounds` must be ascending, start at 0 and end at `data.len()` —
/// [`even_bounds`] or an edge-balanced partition both qualify. This is the
/// one primitive the fused solver sweep needs: disjoint `&mut` access to the
/// iterate plus an ordered reduction of per-chunk partials.
///
/// # Panics
/// Panics if `bounds` is not a valid partition of `data`.
pub fn for_each_part<T, R, F>(data: &mut [T], bounds: &[usize], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(bounds.len() >= 2, "bounds must delimit at least one part");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap(),
        data.len(),
        "bounds must end at data.len()"
    );
    let parts = bounds.len() - 1;
    let threads = num_threads();
    if parts == 1 || threads == 1 || data.len() < FORK_MIN_ELEMENTS {
        counters::note_seq(parts as u64);
        let mut out = Vec::with_capacity(parts);
        for i in 0..parts {
            out.push(f(i, &mut data[bounds[i]..bounds[i + 1]]));
        }
        return out;
    }
    let mut rest = data;
    let slices = bounds
        .windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            head
        })
        .collect();
    fork(slices, threads, f)
}

/// Maps every chunk of `0..len` (chunks of at most `chunk_len`) through `f`
/// and returns the per-chunk outputs in chunk order: the analogue of
/// `(0..len).chunks(chunk_len).map(f).collect()`, forked once `len`
/// reaches [`FORK_MIN_ELEMENTS`].
pub fn map_chunks<R, F>(len: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks = (0..len)
        .step_by(chunk_len)
        .map(|lo| lo..(lo + chunk_len).min(len));
    let threads = num_threads();
    if threads == 1 || len <= chunk_len || len < FORK_MIN_ELEMENTS {
        counters::note_seq(len.div_ceil(chunk_len) as u64);
        return chunks.map(f).collect();
    }
    fork(chunks.collect(), threads, |_, r| f(r))
}

/// Maps `f` over fixed blocks of [`PAR_THRESHOLD`] indices and folds the
/// per-block results **in block order** with `combine`. Returns `None` when
/// `len == 0`.
///
/// The block count depends only on `len`, never on [`num_threads`] — so
/// the floating-point association order of the reduction is
/// **bit-identical across thread counts**. Below the block length there is
/// exactly one block, matching a plain sequential fold. The solver kernels
/// in `sr-core` use this for every float reduction, which is what makes the
/// `SR_THREADS=1` vs `SR_THREADS=8` determinism tests exact rather than
/// approximate.
pub fn map_reduce_blocks<R, F, C>(len: usize, f: F, combine: C) -> Option<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    C: Fn(R, R) -> R,
{
    if len == 0 {
        return None;
    }
    map_chunks(len, PAR_THRESHOLD, f)
        .into_iter()
        .reduce(combine)
}

/// Runs `f(block_index, block_slice)` over fixed blocks of `block_len`
/// elements of `data` (the last block may be shorter) and returns the
/// per-block results **in block order**, forked once `data` holds
/// [`FORK_MIN_ELEMENTS`] elements.
///
/// The mutable-slice analogue of [`map_reduce_blocks`]: because the block
/// boundaries depend only on `data.len()` and `block_len` — never on the
/// thread count — any per-block partials the caller folds in block order
/// are bit-identical across thread counts. The fused solver sweep uses this
/// with `block_len = PAR_THRESHOLD` to update the iterate and accumulate
/// the residual in one pass.
///
/// # Panics
/// Panics if `block_len == 0`.
pub fn for_each_block<T, R, F>(data: &mut [T], block_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(block_len > 0, "block_len must be positive");
    let len = data.len();
    let threads = num_threads();
    if threads == 1 || len <= block_len || len < FORK_MIN_ELEMENTS {
        counters::note_seq(len.div_ceil(block_len) as u64);
        return data
            .chunks_mut(block_len)
            .enumerate()
            .map(|(i, block)| f(i, block))
            .collect();
    }
    fork(data.chunks_mut(block_len).collect(), threads, f)
}

/// Applies `f` to every element of `data` in place, forked once `data`
/// holds [`FORK_MIN_ELEMENTS`] elements. The element order of the inline
/// path is ascending, so order-insensitive updates (scaling, clamping)
/// behave identically on both paths.
pub fn for_each_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = num_threads();
    if data.len() < FORK_MIN_ELEMENTS || threads == 1 {
        data.iter_mut().for_each(f);
        return;
    }
    let bounds = even_bounds(data.len(), threads);
    for_each_part(data, &bounds, |_, part| part.iter_mut().for_each(&f));
}

/// Runs `f(task_index)` for every task in `0..count` in parallel and returns
/// the results in task order.
///
/// Unlike the other helpers this has no work cutover: it is meant for a
/// small number of *coarse* tasks (e.g. independent Monte-Carlo walkers,
/// each worth milliseconds) where every task dwarfs the fork cost. A caller
/// whose work can fall below that cost asks for one task there, which runs
/// inline (source-graph extraction does so below [`FORK_MIN_EDGES`]). Tasks
/// are grouped into one contiguous run per thread, the calling thread
/// running the first.
pub fn map_tasks<R, F>(count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = num_threads();
    if count <= 1 || threads == 1 {
        counters::note_seq(count as u64);
        return (0..count).map(f).collect();
    }
    // One part per task; a vector of `()` allocates nothing.
    fork(vec![(); count], threads, |i, ()| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that switch the process-global counters on and
    /// off, so one cannot disable them under another's measurement.
    pub(crate) static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn even_bounds_cover_everything() {
        assert_eq!(even_bounds(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(even_bounds(2, 5), vec![0, 1, 2]);
        assert_eq!(even_bounds(0, 4), vec![0, 0]);
    }

    #[test]
    fn scaled_bounds_keep_the_partition_shape() {
        assert_eq!(scaled_bounds(&[0, 4, 7, 10], 8), vec![0, 32, 56, 80]);
        assert_eq!(scaled_bounds(&[0, 0], 3), vec![0, 0]);
        // A width-K panel partitioned by scaled bounds is a valid partition
        // for for_each_part over the panel buffer.
        let bounds = even_bounds(100, 4);
        let mut panel = vec![0.0f64; 100 * 5];
        let parts = for_each_part(&mut panel, &scaled_bounds(&bounds, 5), |_, p| p.len());
        assert_eq!(parts.iter().sum::<usize>(), 500);
        assert!(parts.iter().all(|l| l % 5 == 0));
    }

    #[test]
    fn for_each_part_returns_in_order() {
        // Five parts over a region past the cutover, forked into fewer runs
        // than parts (and inline at one thread): every part runs once, in
        // its own slot.
        let n = FORK_MIN_ELEMENTS + 5;
        for threads in [1, 2, 3, 8] {
            let mut data: Vec<usize> = (0..n).collect();
            let bounds = even_bounds(n, 5);
            let sums = with_threads(threads, || {
                for_each_part(&mut data, &bounds, |i, part| {
                    for v in part.iter_mut() {
                        *v += 1;
                    }
                    (i, part.len())
                })
            });
            assert_eq!(sums.iter().map(|&(_, l)| l).sum::<usize>(), n);
            for (i, &(idx, len)) in sums.iter().enumerate() {
                assert_eq!((idx, len), (i, bounds[i + 1] - bounds[i]));
            }
            assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
        }
    }

    #[test]
    fn forks_run_one_part_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(3, || map_tasks(6, |_| std::thread::current().id()));
        // Runs of two tasks each: the caller runs the first, two spawned
        // threads the others.
        assert_eq!(ids[..2], [caller, caller]);
        assert!(ids[2..].iter().all(|&id| id != caller));
        assert_ne!(ids[2], ids[4]);
        // Below the cutover a vector pass never leaves the calling thread.
        let owners = with_threads(8, || {
            map_chunks(FORK_MIN_ELEMENTS - 1, 1000, |_| std::thread::current().id())
        });
        assert!(owners.iter().all(|&id| id == caller));
    }

    #[test]
    fn map_chunks_preserves_order() {
        let got = map_chunks(25_000, 1000, |r| r.start);
        let expect: Vec<usize> = (0..25).map(|i| i * 1000).collect();
        assert_eq!(got, expect);
        let n = FORK_MIN_ELEMENTS + 17;
        let forked = with_threads(3, || map_chunks(n, 1000, |r| (r.start, r.end)));
        assert_eq!(forked.len(), n.div_ceil(1000));
        assert!(forked
            .iter()
            .enumerate()
            .all(|(i, &(lo, hi))| lo == i * 1000 && hi == (lo + 1000).min(n)));
    }

    #[test]
    fn for_each_mut_applies_everywhere() {
        for len in [10_000, FORK_MIN_ELEMENTS] {
            let mut v: Vec<u64> = (0..len as u64).collect();
            with_threads(2, || for_each_mut(&mut v, |x| *x *= 3));
            assert!(v.iter().enumerate().all(|(i, &x)| x == 3 * i as u64));
        }
    }

    #[test]
    fn map_tasks_keeps_order() {
        for threads in [1, 2, 5] {
            let got = with_threads(threads, || map_tasks(17, |i| i * i));
            let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, expect);
        }
        assert!(map_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn with_threads_overrides() {
        with_threads(3, || assert_eq!(num_threads(), 3));
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn map_reduce_blocks_matches_sequential() {
        // Integer folds past the cutover: forked at 4 threads, the same sum
        // as the inline fold and the closed form.
        let n = FORK_MIN_ELEMENTS + 50_000;
        let expect: u64 = (0..n as u64).sum();
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                map_reduce_blocks(n, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| a + b)
            });
            assert_eq!(got, Some(expect));
        }
        assert_eq!(map_reduce_blocks(0, |_| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn map_reduce_blocks_is_thread_count_invariant() {
        // Floating-point association must not change with the thread count,
        // inline or forked.
        for n in [3 * PAR_THRESHOLD + 17, FORK_MIN_ELEMENTS + 17] {
            let data: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let sum_at = |threads: usize| {
                with_threads(threads, || {
                    map_reduce_blocks(n, |r| r.map(|i| data[i]).sum::<f64>(), |a, b| a + b).unwrap()
                })
            };
            let s1 = sum_at(1);
            for threads in [2, 3, 8] {
                assert_eq!(s1.to_bits(), sum_at(threads).to_bits());
            }
        }
    }

    #[test]
    fn for_each_block_visits_fixed_blocks_in_order() {
        let n = 2 * PAR_THRESHOLD + 100;
        let mut data: Vec<u64> = vec![1; n];
        let lens = for_each_block(&mut data, PAR_THRESHOLD, |i, block| {
            for v in block.iter_mut() {
                *v += i as u64;
            }
            (i, block.len())
        });
        assert_eq!(lens.len(), 3);
        for (i, &(idx, len)) in lens.iter().enumerate() {
            assert_eq!(i, idx);
            let expect = if i < 2 { PAR_THRESHOLD } else { 100 };
            assert_eq!(len, expect);
        }
        assert_eq!(data[0], 1);
        assert_eq!(data[PAR_THRESHOLD], 2);
        assert_eq!(data[n - 1], 3);
        assert!(for_each_block(&mut [0u64; 0], 8, |_, _| ()).is_empty());
    }

    #[test]
    fn for_each_block_is_thread_count_invariant() {
        let n = FORK_MIN_ELEMENTS + 3;
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
                let partials = for_each_block(&mut data, PAR_THRESHOLD, |_, block| {
                    let mut acc = 0.0;
                    for v in block.iter_mut() {
                        *v *= 1.5;
                        acc += *v;
                    }
                    acc
                });
                let total: f64 = partials.into_iter().sum();
                (data, total)
            })
        };
        let (d1, t1) = run(1);
        let (d8, t8) = run(8);
        assert_eq!(d1, d8);
        assert_eq!(t1.to_bits(), t8.to_bits());
    }

    #[test]
    fn counters_track_seq_and_par_calls() {
        // Counters are process-global: other tests running concurrently can
        // inflate the totals once enabled, so assert growth, not exact
        // values.
        let _counters = COUNTERS.lock().unwrap_or_else(|p| p.into_inner());
        let sum = |n: usize| map_reduce_blocks(n, |r| r.len(), |a, b| a + b);
        counters::reset();
        sum(100);
        assert_eq!(counters::snapshot().seq_calls, 0, "disabled path counted");

        counters::enable();
        let before = counters::snapshot();
        with_threads(4, || {
            // Several blocks, but below the cutover: inline.
            sum(2 * PAR_THRESHOLD);
        });
        let inline = counters::snapshot();
        with_threads(4, || sum(FORK_MIN_ELEMENTS));
        let after = counters::snapshot();
        counters::disable();
        assert!(inline.seq_calls > before.seq_calls);
        assert!(after.par_calls > inline.par_calls);
        // Four runs: the caller runs one, three threads are spawned.
        assert!(after.tasks_spawned >= inline.tasks_spawned + 3);
        assert!(after.chunks_processed > before.chunks_processed);
        assert!(after.busy_nanos > inline.busy_nanos);
        assert!(after.total_calls() >= after.par_calls);
    }
}
