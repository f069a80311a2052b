//! Bounded producer/consumer pipeline with buffer recycling.
//!
//! [`pipeline_while`] overlaps a *fill* stage (typically I/O: claim the next
//! chunk and read it into a reusable buffer) with a *consume* stage
//! (typically compute: decode and process that chunk), keeping at most
//! `buffers.len()` chunks in flight. The producer runs on one dedicated
//! scoped thread and stays up to `buffers.len() - 1` chunks ahead of the
//! consumer, which runs on the calling thread — the shape of a
//! decode-ahead prefetcher. The pipeline ends when the fill stage reports
//! that its source ran dry.
//!
//! Determinism contract: `consume` is invoked on the calling thread in strict
//! fill order `0, 1, 2, ..`, regardless of how the producer schedules
//! fills. Any computation folded inside `consume` therefore observes chunks
//! in the same order as a plain sequential loop, so results are bitwise
//! identical to the unpipelined path.
//!
//! Error handling: the first error (from either stage) stops the pipeline.
//! Later chunks are neither filled nor consumed, every buffer is recovered,
//! and the error is returned. The shutdown path is deadlock-free: the
//! consumer drops its end of the free-buffer channel the moment an error is
//! recorded, which unblocks a producer waiting for a recycled buffer and
//! lets it wind down.

use std::sync::mpsc;

/// Runs chunks through a two-stage fill → consume pipeline until the
/// source runs dry.
///
/// * `buffers` — reusable staging buffers; their number is the pipeline
///   depth (2 gives classic double buffering). Buffer contents are whatever
///   the previous fill left there; `fill` must overwrite, not append.
/// * `fill(i, buf)` — stage chunk `i` into `buf` and return `Ok(true)`, or
///   return `Ok(false)` when the source ran dry (a shared work cursor
///   handed out its last item, say) and `buf` holds nothing. Runs on the
///   producer thread, except on the sequential path (see below).
/// * `consume(i, buf)` — process staged chunk `i`. Always runs on the
///   calling thread, in index order.
///
/// The chunks filled before the first `Ok(false)` are consumed, in order,
/// and the pipeline ends cleanly: exhaustion is not an error. Returns the
/// recycled buffers (in unspecified order) and the first error, if any.
/// All buffers are always returned, even on the error path.
///
/// Degenerate shapes take a sequential path with no thread spawn: an empty
/// buffer set consumes nothing and returns immediately; a single buffer or
/// a single thread alternates fill/consume inline.
pub fn pipeline_while<B, E, F, C>(
    mut buffers: Vec<B>,
    fill: F,
    mut consume: C,
) -> (Vec<B>, Result<(), E>)
where
    B: Send,
    E: Send,
    F: Fn(usize, &mut B) -> Result<bool, E> + Sync,
    C: FnMut(usize, &mut B) -> Result<(), E>,
{
    if buffers.is_empty() {
        return (buffers, Ok(()));
    }
    if buffers.len() == 1 || crate::num_threads() == 1 {
        let buf = &mut buffers[0];
        for i in 0.. {
            match fill(i, buf) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return (buffers, Err(e)),
            }
            if let Err(e) = consume(i, buf) {
                return (buffers, Err(e));
            }
        }
        return (buffers, Ok(()));
    }

    // full: producer -> consumer, carries (index, filled buffer) and is
    // bounded so the producer can never run more than `depth` chunks ahead.
    // free: consumer -> producer, recycles drained buffers.
    let depth = buffers.len();
    let (full_tx, full_rx) = mpsc::sync_channel::<(usize, B)>(depth);
    let (free_tx, free_rx) = mpsc::channel::<B>();
    for buf in buffers.drain(..) {
        // Seed the free list; cannot fail, the producer holds free_rx.
        let _ = free_tx.send(buf);
    }
    let mut free_tx = Some(free_tx);

    let fill = &fill;
    let (recovered, result) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut fill_err = None;
            let mut in_flight = None;
            for i in 0.. {
                // A closed free list means the consumer hit an error and
                // dropped its sender: stop filling.
                let Ok(mut buf) = free_rx.recv() else { break };
                match fill(i, &mut buf) {
                    Ok(true) => {
                        if let Err(send_err) = full_tx.send((i, buf)) {
                            in_flight = Some(send_err.0 .1);
                            break;
                        }
                    }
                    Ok(false) => {
                        in_flight = Some(buf);
                        break;
                    }
                    Err(e) => {
                        fill_err = Some(e);
                        in_flight = Some(buf);
                        break;
                    }
                }
            }
            // Dropping full_tx here tells the consumer no more chunks are
            // coming; free_rx goes back so the caller can drain buffers
            // still on the free list, plus any buffer stranded mid-fill.
            (free_rx, fill_err, in_flight)
        });

        let mut recovered: Vec<B> = Vec::with_capacity(depth);
        let mut next = 0usize;
        let mut consume_err: Option<E> = None;
        while let Ok((i, mut buf)) = full_rx.recv() {
            // The producer fills in index order off a single thread, so
            // chunks arrive in order; assert the determinism contract.
            assert_eq!(i, next, "pipeline chunks arrived out of order");
            next = i + 1;
            if consume_err.is_none() {
                if let Err(e) = consume(i, &mut buf) {
                    consume_err = Some(e);
                    // Unblock a producer waiting on free_rx.recv().
                    free_tx = None;
                }
            }
            match &free_tx {
                Some(tx) => drop(tx.send(buf)),
                None => recovered.push(buf),
            }
        }
        drop(free_tx);
        let (free_rx, fill_err, in_flight) = producer.join().expect("pipeline producer panicked");
        recovered.extend(in_flight);
        while let Ok(buf) = free_rx.try_recv() {
            recovered.push(buf);
        }
        // The fill error is the earlier one iff the consumer never got the
        // failing chunk; preferring consume_err keeps "first error" exact
        // because a fill error at i means chunks >= i were never consumed.
        (recovered, consume_err.or(fill_err).map_or(Ok(()), Err))
    });

    assert_eq!(recovered.len(), depth, "pipeline lost buffers");
    (recovered, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Claims the next of `items` items from `cursor`, as the out-of-core
    /// sweep's fill stages do: `Some(item)`, or `None` once it ran dry.
    fn claim(cursor: &AtomicUsize, items: usize) -> Option<usize> {
        Some(cursor.fetch_add(1, Relaxed)).filter(|&k| k < items)
    }

    #[test]
    fn consumes_every_chunk_in_order() {
        // Under both the threaded and (via `with_threads(1)`) sequential
        // paths, every claimed item is consumed once, in claim order, from
        // the buffer its fill staged.
        for (items, depth) in [(0, 2), (1, 2), (7, 2), (64, 3), (5, 8)] {
            for threads in [8, 1] {
                crate::with_threads(threads, || {
                    let cursor = AtomicUsize::new(0);
                    let mut order = Vec::new();
                    let (bufs, res) = pipeline_while(
                        vec![Vec::<u8>::new(); depth],
                        |i, buf: &mut Vec<u8>| {
                            let Some(k) = claim(&cursor, items) else {
                                return Ok::<bool, ()>(false);
                            };
                            assert_eq!(k, i, "one pipeline claims in index order");
                            buf.clear();
                            buf.extend_from_slice(&k.to_le_bytes());
                            Ok(true)
                        },
                        |i, buf| {
                            let mut raw = [0u8; 8];
                            raw.copy_from_slice(buf);
                            assert_eq!(usize::from_le_bytes(raw), i, "stale buffer contents");
                            order.push(i);
                            Ok(())
                        },
                    );
                    assert_eq!(bufs.len(), depth);
                    assert_eq!(res, Ok(()));
                    assert_eq!(order, (0..items).collect::<Vec<_>>());
                });
            }
        }
    }

    #[test]
    fn open_ended_pipeline_stops_when_fill_runs_dry() {
        // Two pipelines drain one shared cursor, as the out-of-core sweep's
        // workers do: each consumes its own claims in claim order, every
        // item is consumed exactly once, and running dry is not an error.
        const ITEMS: usize = 37;
        for threads in [8, 1] {
            for depth in [1, 2, 3] {
                let cursor = AtomicUsize::new(0);
                // The thread override is per thread: set it where the
                // pipelines run.
                let drain = || {
                    crate::with_threads(threads, || {
                        let mut got = Vec::new();
                        let (bufs, res) = pipeline_while(
                            vec![usize::MAX; depth],
                            |_, claimed: &mut usize| {
                                *claimed = cursor.fetch_add(1, Relaxed);
                                Ok::<bool, ()>(*claimed < ITEMS)
                            },
                            |_, claimed| {
                                got.push(*claimed);
                                Ok(())
                            },
                        );
                        assert_eq!(bufs.len(), depth, "pipeline lost buffers");
                        assert_eq!(res, Ok(()));
                        got
                    })
                };
                let (a, b) = std::thread::scope(|s| {
                    let a = s.spawn(drain);
                    let b = s.spawn(drain);
                    (a.join().unwrap(), b.join().unwrap())
                });
                assert!(a.windows(2).all(|w| w[0] < w[1]), "claim order kept");
                assert!(b.windows(2).all(|w| w[0] < w[1]), "claim order kept");
                let mut all: Vec<usize> = a.into_iter().chain(b).collect();
                all.sort_unstable();
                assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
            }
        }
        // A source that is dry from the start consumes nothing.
        let (bufs, res) = pipeline_while(
            vec![0u8; 2],
            |_, _| Ok::<bool, ()>(false),
            |_, _| panic!("nothing to consume"),
        );
        assert_eq!((bufs.len(), res), (2, Ok(())));
    }

    #[test]
    fn empty_buffer_set_is_a_noop() {
        let (bufs, res) = pipeline_while(
            Vec::<Vec<u8>>::new(),
            |_, _| Err("fill must not run"),
            |_, _| Err("consume must not run"),
        );
        assert!(bufs.is_empty());
        assert_eq!(res, Ok(()));
    }

    #[test]
    fn fill_error_stops_pipeline_and_recovers_buffers() {
        crate::with_threads(8, || {
            let cursor = AtomicUsize::new(0);
            let consumed = AtomicUsize::new(0);
            let (bufs, res) = pipeline_while(
                vec![0u64, 0, 0],
                |_, _buf| match claim(&cursor, 100) {
                    Some(5) => Err("boom"),
                    claimed => Ok(claimed.is_some()),
                },
                |i, _buf| {
                    assert!(i < 5);
                    consumed.fetch_add(1, Relaxed);
                    Ok(())
                },
            );
            assert_eq!(bufs.len(), 3);
            assert_eq!(res, Err("boom"));
            assert_eq!(consumed.load(Relaxed), 5);
        });
    }

    #[test]
    fn consume_error_stops_pipeline_and_recovers_buffers() {
        // Exercises the shutdown path where the producer may be blocked on
        // the free list; a wedged pipeline fails this test by hanging.
        for depth in [2, 3, 5] {
            crate::with_threads(8, || {
                let cursor = AtomicUsize::new(0);
                let (bufs, res) = pipeline_while(
                    vec![Vec::<u8>::new(); depth],
                    |_, _buf| Ok(claim(&cursor, 1000).is_some()),
                    |i, _buf| if i == 2 { Err(i) } else { Ok(()) },
                );
                assert_eq!(bufs.len(), depth);
                assert_eq!(res, Err(2));
            });
        }
    }

    #[test]
    fn sequential_path_reports_errors_too() {
        crate::with_threads(1, || {
            let cursor = AtomicUsize::new(0);
            let (bufs, res) = pipeline_while(
                vec![(); 2],
                |_, _buf| Ok::<bool, &str>(claim(&cursor, 10).is_some()),
                |i, _buf| if i == 3 { Err("seq boom") } else { Ok(()) },
            );
            assert_eq!(bufs.len(), 2);
            assert_eq!(res, Err("seq boom"));
        });
    }

    #[test]
    fn counters_note_prefetched_accumulates() {
        let _counters = crate::tests::COUNTERS
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        crate::counters::enable();
        let before = crate::counters::snapshot();
        crate::counters::note_prefetched(3, 4096);
        let after = crate::counters::snapshot();
        crate::counters::disable();
        assert!(after.prefetched_chunks >= before.prefetched_chunks + 3);
        assert!(after.prefetched_bytes >= before.prefetched_bytes + 4096);
    }
}
