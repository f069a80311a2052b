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
//!   partials in chunk order, so results are reproducible for a fixed chunk
//!   count regardless of thread scheduling. The *block* helpers
//!   ([`for_each_block`], [`map_reduce_blocks`]) go further: their chunk
//!   count is fixed by [`PAR_THRESHOLD`] alone, so floating-point results
//!   are bit-identical across thread counts (1 thread ≡ 8 threads).
//! * **Sequential below [`PAR_THRESHOLD`].** Fork/join costs a few
//!   microseconds per sweep; unit-test-sized problems skip it entirely and
//!   run bit-identically to a plain loop.
//! * **Thread count** comes from `std::thread::available_parallelism`, can
//!   be pinned with the `SR_THREADS` environment variable, and can be
//!   overridden per-scope with [`with_threads`] (used by the scaling bench).
//! * **Observable.** The [`counters`] module counts tasks spawned, chunks
//!   processed, threshold hits/misses, prefetch activity, and per-worker
//!   busy time — disabled by default at the cost of one relaxed atomic load
//!   per call.
//! * **Decode-ahead.** The [`mod@pipeline`] module overlaps a fill stage (I/O)
//!   with an in-order consume stage (compute) over a small ring of recycled
//!   buffers — the primitive behind the out-of-core solver's shard
//!   prefetcher.

pub mod counters;
pub mod pipeline;

pub use pipeline::{pipeline, pipeline_while};

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// Below this problem size (vector length, node count…), parallel helpers
/// run sequentially. Shared by every kernel in the workspace — the operators,
/// `vecops`, and the convergence norms all gate on the same constant so the
/// sequential/parallel cutover is consistent across the fused sweep.
pub const PAR_THRESHOLD: usize = 4096;

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

/// Runs `f(part_index, part_slice)` for each part of `data` delimited by
/// `bounds`, in parallel (one OS thread per part above the sequential
/// cutover), returning the per-part results **in part order**.
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
    if parts == 1 || data.len() < PAR_THRESHOLD || num_threads() == 1 {
        counters::note_seq(parts as u64);
        let mut out = Vec::with_capacity(parts);
        for i in 0..parts {
            out.push(f(i, &mut data[bounds[i]..bounds[i + 1]]));
        }
        return out;
    }
    counters::note_par(parts as u64, parts as u64);
    let timed = counters::enabled();
    let mut slices = Vec::with_capacity(parts);
    let mut rest = data;
    for i in 0..parts {
        let (head, tail) = rest.split_at_mut(bounds[i + 1] - bounds[i]);
        slices.push(head);
        rest = tail;
    }
    let f = &f;
    let mut out: Vec<Option<R>> = Vec::with_capacity(parts);
    out.resize_with(parts, || None);
    std::thread::scope(|scope| {
        for (i, (slice, slot)) in slices.into_iter().zip(out.iter_mut()).enumerate() {
            scope.spawn(move || busy_timed(timed, || *slot = Some(f(i, slice))));
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Maps `f` over near-equal chunks of `0..len` (one per thread) and folds
/// the per-chunk results **in chunk order** with `combine`. Returns `None`
/// when `len == 0`.
///
/// The chunk count — and therefore the floating-point association order of
/// the reduction — depends only on [`num_threads`], not on scheduling.
pub fn map_reduce<R, F, C>(len: usize, f: F, combine: C) -> Option<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    C: Fn(R, R) -> R,
{
    if len == 0 {
        return None;
    }
    let threads = num_threads();
    if len < PAR_THRESHOLD || threads == 1 {
        counters::note_seq(1);
        return Some(f(0..len));
    }
    let bounds = even_bounds(len, threads);
    let parts = bounds.len() - 1;
    counters::note_par(parts as u64, parts as u64);
    let timed = counters::enabled();
    let f = &f;
    let mut out: Vec<Option<R>> = Vec::with_capacity(parts);
    out.resize_with(parts, || None);
    std::thread::scope(|scope| {
        for (i, slot) in out.iter_mut().enumerate() {
            let range = bounds[i]..bounds[i + 1];
            scope.spawn(move || busy_timed(timed, || *slot = Some(f(range))));
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .reduce(combine)
}

/// Maps every chunk of `0..len` (chunks of at most `chunk_len`) through `f`
/// in parallel and returns the per-chunk outputs in chunk order. The
/// parallel analogue of `(0..len).chunks(chunk_len).map(f).collect()`.
pub fn map_chunks<R, F>(len: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if len == 0 {
        return Vec::new();
    }
    let parts = len.div_ceil(chunk_len);
    let mut out: Vec<Option<R>> = Vec::with_capacity(parts);
    out.resize_with(parts, || None);
    let threads = num_threads();
    if threads == 1 || parts == 1 || len < PAR_THRESHOLD {
        counters::note_seq(parts as u64);
        for (i, slot) in out.iter_mut().enumerate() {
            let lo = i * chunk_len;
            *slot = Some(f(lo..(lo + chunk_len).min(len)));
        }
    } else {
        let f = &f;
        // Chunk counts here are caller-chosen and may exceed the thread
        // count by a lot; group chunks into one contiguous run per thread.
        let group = even_bounds(parts, threads);
        counters::note_par((group.len() - 1) as u64, parts as u64);
        let timed = counters::enabled();
        std::thread::scope(|scope| {
            let mut rest: &mut [Option<R>] = &mut out;
            for g in 0..group.len() - 1 {
                let (head, tail) = rest.split_at_mut(group[g + 1] - group[g]);
                rest = tail;
                let first = group[g];
                scope.spawn(move || {
                    busy_timed(timed, || {
                        for (k, slot) in head.iter_mut().enumerate() {
                            let lo = (first + k) * chunk_len;
                            *slot = Some(f(lo..(lo + chunk_len).min(len)));
                        }
                    })
                });
            }
        });
    }
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Maps `f` over fixed blocks of [`PAR_THRESHOLD`] indices and folds the
/// per-block results **in block order** with `combine`. Returns `None` when
/// `len == 0`.
///
/// Unlike [`map_reduce`], whose chunk count follows [`num_threads`], the
/// block count here depends only on `len` — so the floating-point
/// association order of the reduction is **bit-identical across thread
/// counts**. Below the threshold there is exactly one block, matching a
/// plain sequential fold. The solver kernels in `sr-core` use this for
/// every float reduction, which is what makes the `SR_THREADS=1` vs
/// `SR_THREADS=8` determinism tests exact rather than approximate.
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
/// elements of `data` (the last block may be shorter), in parallel, and
/// returns the per-block results **in block order**.
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
    if len == 0 {
        return Vec::new();
    }
    let blocks = len.div_ceil(block_len);
    let threads = num_threads();
    if threads == 1 || blocks == 1 || len < PAR_THRESHOLD {
        counters::note_seq(blocks as u64);
        let mut out = Vec::with_capacity(blocks);
        let mut rest = data;
        for i in 0..blocks {
            let (head, tail) = rest.split_at_mut(block_len.min(rest.len()));
            rest = tail;
            out.push(f(i, head));
        }
        return out;
    }
    // Group contiguous blocks into one run per thread, like map_chunks.
    let group = even_bounds(blocks, threads);
    let groups = group.len() - 1;
    counters::note_par(groups as u64, blocks as u64);
    let timed = counters::enabled();
    let mut out: Vec<Option<R>> = Vec::with_capacity(blocks);
    out.resize_with(blocks, || None);
    let f = &f;
    std::thread::scope(|scope| {
        let mut data_rest: &mut [T] = data;
        let mut slot_rest: &mut [Option<R>] = &mut out;
        for g in 0..groups {
            let lo = group[g] * block_len;
            let hi = (group[g + 1] * block_len).min(len);
            let (dhead, dtail) = data_rest.split_at_mut(hi - lo);
            data_rest = dtail;
            let (shead, stail) = slot_rest.split_at_mut(group[g + 1] - group[g]);
            slot_rest = stail;
            let first = group[g];
            scope.spawn(move || {
                busy_timed(timed, || {
                    let mut rest = dhead;
                    for (k, slot) in shead.iter_mut().enumerate() {
                        let (head, tail) = rest.split_at_mut(block_len.min(rest.len()));
                        rest = tail;
                        *slot = Some(f(first + k, head));
                    }
                })
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Applies `f` to every element of `data` in place, in parallel above the
/// cutover. The element order of the sequential path is ascending, so
/// order-insensitive updates (scaling, clamping) behave identically on both
/// paths.
pub fn for_each_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = num_threads();
    if data.len() < PAR_THRESHOLD || threads == 1 {
        for v in data.iter_mut() {
            f(v);
        }
        return;
    }
    let bounds = even_bounds(data.len(), threads);
    for_each_part(data, &bounds, |_, part| {
        for v in part.iter_mut() {
            f(v);
        }
    });
}

/// Runs `f(task_index)` for every task in `0..count` in parallel and returns
/// the results in task order.
///
/// Unlike [`map_reduce`] this does **not** gate on
/// [`PAR_THRESHOLD`]: it is meant for a small number of *coarse* tasks (e.g.
/// independent Monte-Carlo walkers, each worth milliseconds) where the task
/// count is far below the threshold but each task dwarfs the fork cost.
/// Tasks are grouped into one contiguous run per thread.
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
    let bounds = even_bounds(count, threads);
    counters::note_par((bounds.len() - 1) as u64, count as u64);
    let timed = counters::enabled();
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut out;
        for g in 0..bounds.len() - 1 {
            let (head, tail) = rest.split_at_mut(bounds[g + 1] - bounds[g]);
            rest = tail;
            let first = bounds[g];
            scope.spawn(move || {
                busy_timed(timed, || {
                    for (k, slot) in head.iter_mut().enumerate() {
                        *slot = Some(f(first + k));
                    }
                })
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Sorts `data` with per-thread chunk sorts followed by a bottom-up merge.
/// Equivalent to `data.sort_unstable()`; parallel only above the cutover.
pub fn par_sort_unstable<T: Ord + Send + Clone>(data: &mut [T]) {
    let threads = num_threads();
    if data.len() < PAR_THRESHOLD || threads == 1 {
        data.sort_unstable();
        return;
    }
    let bounds = even_bounds(data.len(), threads);
    for_each_part(data, &bounds, |_, part| part.sort_unstable());
    // Bottom-up merge of the sorted runs (sequential: merging is
    // memory-bound and the runs are already cache-resident per thread).
    let mut runs: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    let mut scratch: Vec<T> = Vec::with_capacity(data.len());
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        for pair in runs.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0].clone());
                continue;
            }
            let (a, b) = (pair[0].clone(), pair[1].clone());
            scratch.clear();
            {
                let (mut i, mut j) = (a.start, b.start);
                while i < a.end && j < b.end {
                    if data[i] <= data[j] {
                        scratch.push(data[i].clone());
                        i += 1;
                    } else {
                        scratch.push(data[j].clone());
                        j += 1;
                    }
                }
                scratch.extend_from_slice(&data[i..a.end]);
                scratch.extend_from_slice(&data[j..b.end]);
            }
            data[a.start..b.end].clone_from_slice(&scratch);
            next.push(a.start..b.end);
        }
        runs = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut data: Vec<usize> = (0..10_000).collect();
        let bounds = even_bounds(data.len(), 4);
        let sums = for_each_part(&mut data, &bounds, |i, part| {
            for v in part.iter_mut() {
                *v += 1;
            }
            (i, part.len())
        });
        assert_eq!(sums.iter().map(|&(_, l)| l).sum::<usize>(), 10_000);
        for (i, &(idx, _)) in sums.iter().enumerate() {
            assert_eq!(i, idx);
        }
        assert_eq!(data[0], 1);
        assert_eq!(data[9999], 10_000);
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let n = 50_000;
        let expect: u64 = (0..n as u64).sum();
        let got = map_reduce(n, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| a + b).unwrap();
        assert_eq!(got, expect);
        assert_eq!(map_reduce(0, |_| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn map_chunks_preserves_order() {
        let got = map_chunks(25_000, 1000, |r| r.start);
        let expect: Vec<usize> = (0..25).map(|i| i * 1000).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_sort_sorts() {
        let mut v: Vec<u64> = (0..20_000)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_unstable(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn for_each_mut_applies_everywhere() {
        let mut v: Vec<u64> = (0..10_000).collect();
        for_each_mut(&mut v, |x| *x *= 3);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 3 * i as u64));
    }

    #[test]
    fn map_tasks_keeps_order_below_threshold() {
        let got = map_tasks(17, |i| i * i);
        let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
        assert_eq!(got, expect);
        assert!(map_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn with_threads_overrides() {
        with_threads(3, || assert_eq!(num_threads(), 3));
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn map_reduce_blocks_matches_sequential() {
        let n = 50_000;
        let expect: u64 = (0..n as u64).sum();
        let got = map_reduce_blocks(n, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| a + b).unwrap();
        assert_eq!(got, expect);
        assert_eq!(map_reduce_blocks(0, |_| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn map_reduce_blocks_is_thread_count_invariant() {
        // Floating-point association must not change with the thread count.
        let n = 3 * PAR_THRESHOLD + 17;
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
        let n = 4 * PAR_THRESHOLD + 3;
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
        // Counters are process-global and this is the only test that
        // enables them. Other tests running concurrently can inflate the
        // totals once enabled, so assert growth, not exact values.
        counters::reset();
        map_reduce(100, |r| r.len(), |a, b| a + b);
        assert_eq!(counters::snapshot().seq_calls, 0, "disabled path counted");

        counters::enable();
        let before = counters::snapshot();
        map_reduce(100, |r| r.len(), |a, b| a + b);
        let n = 2 * PAR_THRESHOLD;
        with_threads(4, || {
            map_reduce(n, |r| r.len(), |a, b| a + b);
        });
        let after = counters::snapshot();
        counters::disable();
        assert!(after.seq_calls > before.seq_calls);
        assert!(after.par_calls > before.par_calls);
        assert!(after.tasks_spawned >= before.tasks_spawned + 4);
        assert!(after.chunks_processed > before.chunks_processed);
        assert!(after.busy_nanos > before.busy_nanos);
        assert!(after.total_calls() >= after.par_calls);
    }
}
