//! Deterministic fork-join helpers for the parallel execution engine.
//!
//! The simulation's reproducibility contract is *byte-identical output at
//! any thread count* (DESIGN.md §6). These helpers make that easy to uphold:
//! [`map_indexed_with`] is an order-preserving parallel map — workers pull
//! items off a shared counter (so uneven per-item cost balances
//! automatically) but results are returned in input order, exactly as a
//! serial `map` would produce them — and [`map_indexed`] is the same map
//! without per-worker state. All parallelism in sixscope funnels through
//! that one fork-join, and `threads == 1` degrades to a plain serial loop
//! with no thread spawned.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SIXSCOPE_THREADS";

/// Resolves the worker-thread count.
///
/// Priority: an explicit `requested` value, then the `SIXSCOPE_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
/// The result is always at least 1; 1 means "run serially".
pub fn num_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: returns `f(0, &items[0]), f(1, &items[1]),
/// …` in input order regardless of which worker computed what.
///
/// A thin wrapper over [`map_indexed_with`] with no per-worker state.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn map_indexed<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map_indexed_with(threads, items, || (), |_, i, item| f(i, item))
}

/// Order-preserving parallel map with per-worker state: returns
/// `f(&mut s, 0, &items[0]), f(&mut s, 1, &items[1]), …` in input order,
/// where `s` is the state of whichever worker computed the item.
///
/// Work distribution is dynamic (a shared atomic cursor hands out items in
/// input order), so wildly uneven per-item cost — a heavy-hitter scanner
/// next to a one-off — still keeps every worker busy, and sorting `items`
/// longest-first makes it a longest-processing-time schedule. Each worker
/// calls `init` once, when it takes its first item, and reuses that state
/// for every later item it takes; all states drop before this returns. With
/// `threads <= 1` (or one item) no thread is spawned and everything runs on
/// the caller's stack.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn map_indexed_with<T, S, U, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers == 1 {
        let mut state = None;
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(state.get_or_insert_with(&init), i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = None;
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, f(state.get_or_insert_with(&init), i, item)));
        }
        local
    };
    let per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Splits `len` items into at most `shards` contiguous index ranges whose
/// sizes differ by at most one. Empty input yields no ranges.
pub fn chunk_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_explicit_wins() {
        assert_eq!(num_threads(Some(3)), 3);
        assert_eq!(num_threads(Some(0)), 1, "zero clamps to serial");
    }

    #[test]
    fn map_indexed_preserves_order_serially_and_in_parallel() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = map_indexed(1, &items, |i, &x| x * 2 + i as u64);
        for threads in [2, 4, 8] {
            let parallel = map_indexed(threads, &items, |i, &x| x * 2 + i as u64);
            assert_eq!(serial, parallel, "order diverged at {threads} threads");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        assert!(map_indexed(8, &[] as &[u32], |_, &x| x).is_empty());
        assert_eq!(map_indexed(8, &[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn map_indexed_balances_uneven_work() {
        // One item is 1000× heavier; dynamic scheduling must still return
        // input order.
        let items: Vec<usize> = (0..64).collect();
        let out = map_indexed(4, &items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        let reference = map_indexed(1, &items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        assert_eq!(out, reference);
    }

    #[test]
    fn map_indexed_with_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let out =
                map_indexed_with(threads, &items, Vec::new, |seen: &mut Vec<usize>, i, &x| {
                    // Items reach one worker in ascending order.
                    assert!(seen.last().is_none_or(|&last| last < i));
                    seen.push(i);
                    x * 3 + 1
                });
            assert_eq!(out, want, "order diverged at {threads} threads");
        }
    }

    #[test]
    fn map_indexed_with_inits_at_most_once_per_worker() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        for (threads, len) in [(1, 0), (1, 50), (2, 1), (2, 50), (8, 3), (8, 50)] {
            let items: Vec<usize> = (0..len).collect();
            let inits = AtomicUsize::new(0);
            let per_thread = Mutex::new(HashMap::new());
            map_indexed_with(
                threads,
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    *per_thread
                        .lock()
                        .unwrap()
                        .entry(std::thread::current().id())
                        .or_insert(0) += 1;
                },
                |_, _, &x| x,
            );
            let inits = inits.into_inner();
            assert!(
                inits <= threads.min(len),
                "{inits} inits at {threads} threads, {len} items"
            );
            assert_eq!(inits == 0, len == 0);
            assert!(per_thread.into_inner().unwrap().values().all(|&n| n == 1));
        }
    }

    #[test]
    fn map_indexed_with_one_thread_spawns_nothing() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..20).collect();
        let out = map_indexed_with(
            1,
            &items,
            || assert_eq!(std::thread::current().id(), caller),
            |_, _, &x| {
                assert_eq!(std::thread::current().id(), caller);
                x
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for (len, shards) in [(10, 3), (3, 10), (1, 1), (100, 7), (8, 8)] {
            let ranges = chunk_ranges(len, shards);
            assert!(ranges.len() <= shards);
            let mut covered = 0;
            for (k, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "gap before shard {k}");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
        assert!(chunk_ranges(0, 4).is_empty());
    }
}
