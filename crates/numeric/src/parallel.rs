//! A minimal scoped-thread work pool for embarrassingly parallel,
//! *deterministic* workloads.
//!
//! The workspace builds offline with no external dependencies, so this
//! is built on `std::thread::scope` alone. The design goal is not a
//! general task system but the two fan-out shapes the estimators need:
//!
//! * [`run_chunks`] — split a slice into fixed-width consecutive chunks
//!   and apply a worker function to each (the VB2 component sweep);
//! * [`map_items`] — the chunk-width-1 special case (batch fitting,
//!   where every item is a whole fit).
//!
//! # Determinism
//!
//! The chunk partition depends only on the input length and the chunk
//! width — never on the thread count or on scheduling. Workers pull
//! chunk *indices* from an atomic cursor and write results into
//! per-chunk slots, which the caller reads back in chunk order. So as
//! long as the worker function is itself a pure function of
//! `(chunk_index, chunk)`, the returned vector is bitwise identical
//! for every thread count, including the spawn-free `threads = 1`
//! path. Callers that carry state *within* a chunk (e.g. warm-started
//! solves) keep determinism for free, because a chunk is never split
//! across workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count meant by `threads = 0`: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means [`auto_threads`], and
/// the result is capped by the number of work units so no worker is
/// spawned just to find the queue empty.
fn resolve_threads(threads: usize, units: usize) -> usize {
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    threads.min(units).max(1)
}

/// Splits `items` into consecutive chunks of width `chunk_size` and
/// applies `work(chunk_index, chunk)` to each, returning the per-chunk
/// results in chunk order.
///
/// With `threads <= 1` (or a single chunk) everything runs inline on
/// the calling thread — no spawn, no synchronisation. Otherwise a
/// scoped pool of at most `threads` workers drains the chunk queue.
/// `threads = 0` asks for [`auto_threads`]. Either way the result is
/// the same, element for element (see the module docs on determinism).
///
/// # Panics
///
/// Panics if `chunk_size == 0`. A panic inside `work` propagates to
/// the caller after all workers have been joined.
pub fn run_chunks<T, R, F>(threads: usize, chunk_size: usize, items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = resolve_threads(threads, n_chunks);
    if threads <= 1 {
        return items
            .chunks(chunk_size)
            .enumerate()
            .map(|(index, chunk)| work(index, chunk))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n_chunks {
                    break;
                }
                let lo = index * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                let result = work(index, &items[lo..hi]);
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every chunk index below the cursor bound was executed")
        })
        .collect()
}

/// [`run_chunks`] writing into a caller-provided output slice instead
/// of allocating per-chunk result vectors — the allocation-free shape
/// used by the VB2 component sweep's scratch arena.
///
/// `out` must have the same length as `items`; `work(index, chunk,
/// out_chunk)` receives the matching disjoint output window and fills
/// it. A `work` call returning `Err` does not stop other chunks, but
/// the error from the *lowest-indexed* failing chunk is returned, so
/// the reported error is deterministic across thread counts (the
/// serial path short-circuits at the first error, which is the same
/// lowest-indexed one).
///
/// # Panics
///
/// Panics if `chunk_size == 0` or `items.len() != out.len()`. A panic
/// inside `work` propagates after all workers have been joined.
pub fn run_chunks_with_out<T, S, E, F>(
    threads: usize,
    chunk_size: usize,
    items: &[T],
    out: &mut [S],
    work: F,
) -> Result<(), E>
where
    T: Sync,
    S: Send,
    E: Send,
    F: Fn(usize, &[T], &mut [S]) -> Result<(), E> + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    assert_eq!(
        items.len(),
        out.len(),
        "output slice must be aligned with the input items"
    );
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = resolve_threads(threads, n_chunks);
    if threads <= 1 {
        for (index, (chunk, out_chunk)) in items
            .chunks(chunk_size)
            .zip(out.chunks_mut(chunk_size))
            .enumerate()
        {
            work(index, chunk, out_chunk)?;
        }
        return Ok(());
    }

    let cursor = AtomicUsize::new(0);
    // Each worker takes exclusive ownership of its chunk's disjoint
    // output window through the slot mutex; every slot is taken at
    // most once because chunk indices come from the atomic cursor.
    let out_slots: Vec<Mutex<Option<&mut [S]>>> = out
        .chunks_mut(chunk_size)
        .map(|chunk| Mutex::new(Some(chunk)))
        .collect();
    let err_slots: Vec<Mutex<Option<E>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n_chunks {
                    break;
                }
                let out_chunk = out_slots[index]
                    .lock()
                    .expect("output slot poisoned")
                    .take()
                    .expect("each chunk index is claimed exactly once");
                let lo = index * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                if let Err(e) = work(index, &items[lo..hi], out_chunk) {
                    *err_slots[index].lock().expect("error slot poisoned") = Some(e);
                }
            });
        }
    });
    for slot in err_slots {
        if let Some(e) = slot.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
    }
    Ok(())
}

/// Applies `work(index, item)` to each item independently and returns
/// the results in item order — [`run_chunks`] with chunk width 1, the
/// shape used by the batch-fit APIs.
pub fn map_items<T, R, F>(threads: usize, items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_chunks(threads, 1, items, |index, chunk| work(index, &chunk[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn chunk_partition_is_independent_of_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let record = |index: usize, chunk: &[u64]| (index, chunk.first().copied(), chunk.len());
        let serial = run_chunks(1, 64, &items, record);
        for threads in [0, 2, 3, 8] {
            assert_eq!(run_chunks(threads, 64, &items, record), serial);
        }
        // 1000 items in chunks of 64: 15 full chunks and a ragged tail.
        assert_eq!(serial.len(), 16);
        assert_eq!(serial[15], (15, Some(960), 40));
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        let items: Vec<u64> = (0..257).collect();
        let sums = run_chunks(4, 16, &items, |_, chunk| chunk.iter().sum::<u64>());
        let expected: Vec<u64> = items.chunks(16).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn within_chunk_state_is_deterministic_across_thread_counts() {
        // A warm-started accumulation: each element depends on its
        // predecessor *within* the chunk only.
        let items: Vec<f64> = (1..=300).map(|i| i as f64).collect();
        let warm = |_: usize, chunk: &[f64]| {
            let mut carry = 0.0f64;
            let mut out = Vec::with_capacity(chunk.len());
            for &x in chunk {
                carry = (carry + x).sqrt();
                out.push(carry);
            }
            out
        };
        let serial: Vec<f64> = run_chunks(1, 32, &items, warm)
            .into_iter()
            .flatten()
            .collect();
        for threads in [2, 8] {
            let parallel: Vec<f64> = run_chunks(threads, 32, &items, warm)
                .into_iter()
                .flatten()
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&parallel), bits(&serial), "threads = {threads}");
        }
    }

    #[test]
    fn with_out_matches_serial_for_every_thread_count() {
        let items: Vec<f64> = (1..=300).map(|i| i as f64).collect();
        let warm = |_: usize, chunk: &[f64], out: &mut [f64]| -> Result<(), ()> {
            let mut carry = 0.0f64;
            for (x, slot) in chunk.iter().zip(out.iter_mut()) {
                carry = (carry + x).sqrt();
                *slot = carry;
            }
            Ok(())
        };
        let mut serial = vec![0.0; items.len()];
        run_chunks_with_out(1, 32, &items, &mut serial, warm).unwrap();
        for threads in [2, 8] {
            let mut parallel = vec![0.0; items.len()];
            run_chunks_with_out(threads, 32, &items, &mut parallel, warm).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&parallel), bits(&serial), "threads = {threads}");
        }
    }

    #[test]
    fn with_out_reports_lowest_indexed_error() {
        let items: Vec<usize> = (0..100).collect();
        let fail_on = |bad: &'static [usize]| {
            move |index: usize, _: &[usize], _: &mut [u8]| {
                if bad.contains(&index) {
                    Err(index)
                } else {
                    Ok(())
                }
            }
        };
        for threads in [1, 4] {
            let mut out = vec![0u8; items.len()];
            let err = run_chunks_with_out(threads, 8, &items, &mut out, fail_on(&[9, 3, 6]));
            assert_eq!(err, Err(3), "threads = {threads}");
        }
    }

    #[test]
    fn map_items_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        let doubled = map_items(8, &items, |index, &item| {
            assert_eq!(index, item);
            item * 2
        });
        assert_eq!(doubled, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let none: Vec<u8> = Vec::new();
        assert!(run_chunks(4, 8, &none, |_, c| c.len()).is_empty());
        assert!(map_items::<u8, usize, _>(4, &none, |_, _| 0).is_empty());
    }

    #[test]
    fn resolve_threads_handles_degenerate_requests() {
        // Zero work units must still resolve to one (inline) worker —
        // including the doubly degenerate `(0, 0)` auto request — so
        // the spawn-free path is taken and no pool is built over an
        // empty queue.
        assert_eq!(resolve_threads(0, 0), 1);
        assert_eq!(resolve_threads(4, 0), 1);
        assert_eq!(resolve_threads(0, 1), 1);
        assert_eq!(resolve_threads(1, 1), 1);
        // More threads than units: capped to the unit count.
        assert_eq!(resolve_threads(8, 3), 3);
        // More units than threads: the request is honoured.
        assert_eq!(resolve_threads(3, 100), 3);
    }

    #[test]
    fn empty_and_tiny_inputs_return_cleanly_on_every_api() {
        // units = 0: every entry point returns empty/Ok without
        // touching the worker closure.
        let none: Vec<u64> = Vec::new();
        for threads in [0usize, 1, 4] {
            assert!(run_chunks(threads, 8, &none, |_, c: &[u64]| c.len()).is_empty());
            assert!(map_items::<u64, u64, _>(threads, &none, |_, &x| x).is_empty());
            let mut out: Vec<u64> = Vec::new();
            run_chunks_with_out(threads, 8, &none, &mut out, |_, _, _| Err(()))
                .expect("no chunks, no work, no error");
        }
        // units = 1: a single chunk runs inline whatever the request.
        let one = [7u64];
        for threads in [0usize, 1, 64] {
            assert_eq!(run_chunks(threads, 8, &one, |_, c| c[0]), vec![7]);
            assert_eq!(map_items(threads, &one, |_, &x| x * 3), vec![21]);
            let mut out = [0u64];
            run_chunks_with_out(threads, 8, &one, &mut out, |_, c, o| {
                o[0] = c[0] + 1;
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(out, [8]);
        }
        // units = threads − 1: the pool caps at the unit count and the
        // results still come back in chunk order.
        let items: Vec<u64> = (0..3).collect();
        let got = run_chunks(4, 1, &items, |index, chunk| (index, chunk[0]));
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2)]);
        let mut out = vec![0u64; items.len()];
        run_chunks_with_out(4, 1, &items, &mut out, |_, c, o| {
            o[0] = c[0] * 10;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn single_chunk_runs_inline() {
        // threads capped by unit count: one chunk → inline path even
        // with a large requested pool.
        let items = [1u64, 2, 3];
        let out = run_chunks(64, 8, &items, |index, chunk| (index, chunk.to_vec()));
        assert_eq!(out, vec![(0, vec![1, 2, 3])]);
    }
}
