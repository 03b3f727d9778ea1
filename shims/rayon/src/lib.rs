//! Offline stand-in for the `rayon` crate.
//!
//! Implements the parallel-iterator adapters this workspace uses —
//! `into_par_iter().enumerate().for_each(..)` and
//! `par_chunks(n).map(..).reduce(id, op)` — with genuine OS-thread
//! parallelism via `std::thread::scope`, plus a `ThreadPoolBuilder` /
//! `ThreadPool::install` pair that scopes the worker count.
//!
//! Scheduling differs from rayon (contiguous block splitting instead of
//! work stealing), which is exactly the kind of variation the
//! order-invariant kernels in this workspace are designed to be immune
//! to; their tests assert bitwise-identical results across schedules.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The default width, read once: `available_parallelism` re-reads the
/// cgroup files on every call, and real rayon fixes its global pool's
/// width at start too.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of worker threads parallel operations will use on this
/// thread.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(|t| t.get()).unwrap_or_else(|| {
        *DEFAULT_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Error from [`ThreadPoolBuilder::build`] (infallible here; kept for API
/// parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl core::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A default builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 means "default").
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// A scoped worker-count configuration. Threads are spawned per
/// operation (scoped), so the "pool" only carries the configured width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `f` with this pool's worker count governing parallel
    /// operations invoked inside it.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        POOL_THREADS.with(|t| {
            let prev = t.replace(self.num_threads.or_else(|| Some(current_num_threads())));
            let out = f();
            t.set(prev);
            out
        })
    }
}

/// Splits `items` into at most `current_num_threads()` contiguous blocks
/// and runs `f` over every item, in parallel across blocks.
fn for_each_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let workers = current_num_threads().clamp(1, items.len().max(1));
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let block = items.len().div_ceil(workers);
    let mut items = items;
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while !items.is_empty() {
        let tail = items.split_off(items.len().saturating_sub(block));
        blocks.push(tail);
    }
    let f = &f;
    std::thread::scope(|s| {
        // `blocks` was peeled tail-first, so its first entry is the last
        // block: the calling thread runs that one instead of idling.
        let mut blocks = blocks.into_iter();
        let mine = blocks.next();
        for blk in blocks {
            s.spawn(move || {
                for item in blk {
                    f(item);
                }
            });
        }
        for item in mine.into_iter().flatten() {
            f(item);
        }
    });
}

/// Conversion into a parallel iterator (owning).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// The produced iterator.
    type Iter;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;

    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { items: self }
    }
}

/// Parallel iterator over an owned `Vec`.
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> VecParIter<T> {
    /// Pairs each item with its index.
    pub fn enumerate(self) -> VecParIter<(usize, T)> {
        VecParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` over every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        for_each_parallel(self.items, f);
    }

    /// Maps items through `f` (parallelism applies at the consuming
    /// adapter).
    pub fn map<O: Send, F: Fn(T) -> O + Sync>(self, f: F) -> MappedVec<T, F> {
        MappedVec { items: self.items, f }
    }
}

/// A mapped owning parallel iterator.
pub struct MappedVec<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, O: Send, F: Fn(T) -> O + Sync> MappedVec<T, F> {
    /// Parallel fold-and-combine with an identity constructor.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> O
    where
        ID: Fn() -> O + Sync,
        OP: Fn(O, O) -> O + Sync,
    {
        let MappedVec { items, f } = self;
        reduce_blocks(items, &f, &identity, &op)
    }

    /// Collects mapped items, preserving order.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        // Sequential collect keeps order without unsafe scatter writes;
        // the workspace only uses parallel collect on small item counts.
        let MappedVec { items, f } = self;
        items.into_iter().map(f).collect()
    }
}

fn reduce_blocks<T, O, F, ID, OP>(items: Vec<T>, f: &F, identity: &ID, op: &OP) -> O
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
    ID: Fn() -> O + Sync,
    OP: Fn(O, O) -> O + Sync,
{
    let workers = current_num_threads().clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).fold(identity(), &op);
    }
    let block = items.len().div_ceil(workers);
    let mut items = items;
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while !items.is_empty() {
        let tail = items.split_off(items.len().saturating_sub(block));
        blocks.push(tail);
    }
    // split_off peeled blocks tail-first; restore input order so the
    // final combine is deterministic left-to-right.
    blocks.reverse();
    let last = blocks.pop();
    std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|blk| {
                s.spawn(move || blk.into_iter().map(f).fold(identity(), &op))
            })
            .collect();
        // The calling thread runs the last block while the others work.
        let mine = last.into_iter().flatten().map(f).fold(identity(), op);
        let partials = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .fold(identity(), op);
        op(partials, mine)
    })
}

/// Parallel chunked views of slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunks { slice: self, size }
    }
}

/// See [`ParallelSlice::par_chunks`].
pub struct ParChunks<'data, T> {
    slice: &'data [T],
    size: usize,
}

impl<'data, T: Sync> ParChunks<'data, T> {
    /// Maps each chunk through `f`.
    pub fn map<O: Send, F: Fn(&'data [T]) -> O + Sync>(self, f: F) -> MappedChunks<'data, T, F> {
        MappedChunks { slice: self.slice, size: self.size, f }
    }

    /// Runs `f` over every chunk in parallel.
    pub fn for_each<F: Fn(&'data [T]) + Sync>(self, f: F) {
        let chunks: Vec<&'data [T]> = self.slice.chunks(self.size).collect();
        for_each_parallel(chunks, f);
    }
}

/// A mapped chunk iterator.
pub struct MappedChunks<'data, T, F> {
    slice: &'data [T],
    size: usize,
    f: F,
}

impl<'data, T: Sync, O: Send, F: Fn(&'data [T]) -> O + Sync> MappedChunks<'data, T, F> {
    /// Parallel fold-and-combine with an identity constructor.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> O
    where
        ID: Fn() -> O + Sync,
        OP: Fn(O, O) -> O + Sync,
    {
        let chunks: Vec<&'data [T]> = self.slice.chunks(self.size).collect();
        reduce_blocks(chunks, &self.f, &identity, &op)
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn for_each_visits_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..1000).collect();
        items
            .into_par_iter()
            .enumerate()
            .for_each(|(i, v)| {
                assert_eq!(i, v);
                hits[v].fetch_add(1, Ordering::Relaxed);
            });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunked_reduce_matches_serial() {
        let xs: Vec<u64> = (0..100_000).collect();
        let total = xs
            .par_chunks(4096)
            .map(|c| c.iter().sum::<u64>())
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn reduce_combines_blocks_in_input_order_and_the_caller_works() {
        // Concatenation does not commute, so any out-of-order combine of
        // the blocks shows; the caller's thread id shows it ran a block.
        let caller = std::thread::current().id();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let xs: Vec<u32> = (0..1000).collect();
        let (joined, ran_here) = pool.install(|| {
            xs.par_chunks(7)
                .map(|c| (c.to_vec(), std::thread::current().id() == caller))
                .reduce(
                    || (Vec::new(), false),
                    |(mut a, x), (b, y)| {
                        a.extend(b);
                        (a, x || y)
                    },
                )
        });
        assert_eq!(joined, xs);
        assert!(ran_here);
    }

    #[test]
    fn install_scopes_worker_count() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| assert_eq!(crate::current_num_threads(), 3));
    }
}
