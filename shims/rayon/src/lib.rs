//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates-io access, so this workspace-local
//! shim provides the (small) subset of rayon's API the other crates use,
//! implemented with `std::thread::scope`. Semantics match rayon where it
//! matters here:
//!
//! - parallel iterators preserve input order in `collect`/`sum`, so results
//!   are deterministic and independent of the worker count;
//! - `ThreadPoolBuilder::num_threads(k)` bounds the concurrency of parallel
//!   calls made inside `ThreadPool::install`;
//! - `map_init` creates one scratch value per worker chunk, never sharing it
//!   across workers.
//!
//! Work is split into one contiguous chunk per worker (static scheduling).
//! That is a reasonable fit for the regular, flat loops this workspace runs;
//! rayon's work stealing is not reproduced.
//!
//! A fork is not free: every worker but one is a fresh scoped OS thread
//! (about 100 µs to spawn and join on a small shared host). The calling
//! thread therefore runs the first chunk itself and spawns only
//! `threads - 1` workers, and [`ParIter::with_min_len`] lets a call site
//! with cheap items fork only when each worker gets enough of them.

use std::cell::Cell;

/// Seeded adversarial scheduler, compiled only under `--features chaos`.
///
/// The shim's static scheduling is *too* tame to catch order-dependent
/// bugs: every run at a given thread count splits work identically. This
/// module deterministically derives, from `REORDERLAB_CHAOS_SEED` (or an
/// in-process [`chaos::set_seed`] override), a different schedule per
/// parallel call: uneven chunk boundaries, a permuted spawn order, permuted
/// yield pressure per worker, and swapped `join` arms. Results must still be
/// bit-identical to the serial path — the chaos-schedules test tier asserts
/// exactly that. The one-thread path stays untouched as the oracle.
#[cfg(feature = "chaos")]
pub mod chaos {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// Sentinel for "no in-process override; read the environment".
    const UNSET: u64 = u64::MAX;
    static SEED_OVERRIDE: AtomicU64 = AtomicU64::new(UNSET);
    /// Per-process call counter so successive parallel calls under one seed
    /// still see distinct schedules.
    static CALL: AtomicU64 = AtomicU64::new(0);

    fn env_seed() -> u64 {
        static ENV: OnceLock<u64> = OnceLock::new();
        *ENV.get_or_init(|| {
            std::env::var("REORDERLAB_CHAOS_SEED")
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .unwrap_or(0)
        })
    }

    /// The active chaos seed: the in-process override if one was set, else
    /// `REORDERLAB_CHAOS_SEED`, else 0.
    pub fn seed() -> u64 {
        match SEED_OVERRIDE.load(Ordering::Relaxed) {
            UNSET => env_seed(),
            s => s,
        }
    }

    /// Overrides the seed for this process and restarts the call counter,
    /// so test tiers can iterate many schedules without respawning.
    pub fn set_seed(seed: u64) {
        SEED_OVERRIDE.store(seed, Ordering::Relaxed);
        CALL.store(0, Ordering::Relaxed);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A splitmix64 counter stream; cheap, stateless between calls.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(self.0)
        }

        /// Uniform-ish draw in `0..n` (modulo bias is irrelevant here:
        /// any schedule is a valid schedule).
        fn below(&mut self, n: usize) -> usize {
            if n <= 1 {
                0
            } else {
                (self.next() % n as u64) as usize
            }
        }
    }

    /// One RNG per parallel call, derived from seed × call index. When
    /// parallel calls nest, the counter order (and thus which schedule each
    /// call draws) may itself race — that is fine: chaos schedules need not
    /// be reproducible, only the *results* computed under them.
    fn call_rng() -> Rng {
        let call = CALL.fetch_add(1, Ordering::Relaxed);
        Rng(splitmix64(seed()) ^ splitmix64(call.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// Whether the next [`crate::join`] should run its arms in swapped order.
    pub(crate) fn swap_join() -> bool {
        call_rng().next() & 1 == 1
    }

    /// An adversarial schedule for one chunked parallel call.
    pub(crate) struct Plan {
        /// Uneven chunk sizes in input order; each ≥ 1, summing to `len`.
        pub(crate) sizes: Vec<usize>,
        /// Spawn-order permutation over chunk indices.
        pub(crate) spawn_order: Vec<usize>,
        /// `yield_now` count injected before each chunk starts.
        pub(crate) yields: Vec<u32>,
    }

    /// Draws a schedule for `len` items across at most `threads` workers.
    /// Callers guarantee `len > 1` and `threads > 1`.
    pub(crate) fn plan(len: usize, threads: usize) -> Plan {
        let mut rng = call_rng();
        let max_chunks = threads.min(len).max(2);
        let k = 2 + rng.below(max_chunks - 1);
        let mut sizes = Vec::with_capacity(k);
        let mut remaining = len;
        for i in 0..k {
            let slots_left = k - i;
            let take = if slots_left == 1 {
                remaining
            } else {
                // Leave at least one item for every remaining slot.
                1 + rng.below(remaining - (slots_left - 1))
            };
            sizes.push(take);
            remaining -= take;
        }
        let mut spawn_order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = rng.below(i + 1);
            spawn_order.swap(i, j);
        }
        let yields = (0..k).map(|_| rng.below(4) as u32).collect();
        Plan { sizes, spawn_order, yields }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// Concurrency bound installed by [`ThreadPool::install`]; 0 = default.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel calls on this thread will use.
///
/// Resolution order matches rayon's global pool: an installed
/// [`ThreadPool`] bound wins, then the `RAYON_NUM_THREADS` environment
/// variable, then the machine's available parallelism.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(|t| t.get());
    if installed > 0 {
        return installed;
    }
    if let Some(n) = env_num_threads() {
        return n;
    }
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// `RAYON_NUM_THREADS`, parsed once; `None` if unset, empty, zero, or
/// unparsable (rayon treats those as "use the default").
fn env_num_threads() -> Option<usize> {
    static ENV_THREADS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// Error type of [`ThreadPoolBuilder::build`]; the shim never fails.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A concurrency bound that applies to parallel calls within `install`.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's bound installed on the calling thread.
    /// The previous bound comes back when `op` returns or unwinds, so a
    /// caught panic never leaks the bound into later work on this thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|t| t.replace(self.num_threads)));
        op()
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    #[cfg(feature = "chaos")]
    if chaos::swap_join() {
        // Adversarial order: `b` runs on the caller thread while `a` is
        // spawned; the result tuple keeps its (ra, rb) contract.
        return std::thread::scope(|s| {
            let ha = s.spawn(a);
            let rb = b();
            (ha.join().expect("rayon-shim join worker panicked"), rb)
        });
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

/// Splits `items` into at most `current_num_threads()` contiguous chunks,
/// and at most `items.len() / min_len` of them, and maps each chunk on its
/// own thread — the first on the calling thread — preserving input order.
/// `init` runs once per chunk, providing per-worker scratch for `f`.
fn run_chunked<T, I, R, INIT, F>(items: Vec<T>, min_len: usize, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    // Chaos ignores the grain so that small inputs are still perturbed.
    let min_len = if cfg!(feature = "chaos") { 1 } else { min_len };
    let threads = current_num_threads().min(items.len() / min_len);
    if threads <= 1 {
        let mut scratch = init();
        return items.into_iter().map(|t| f(&mut scratch, t)).collect();
    }
    #[cfg(feature = "chaos")]
    return run_chunked_chaos(items, init, f, threads);
    #[cfg(not(feature = "chaos"))]
    run_chunked_static(items, init, f, threads)
}

/// The default static schedule: even contiguous chunks; the calling thread
/// maps the first while one spawned worker per remaining chunk maps the
/// rest, joined in order.
#[cfg(not(feature = "chaos"))]
fn run_chunked_static<T, I, R, INIT, F>(items: Vec<T>, init: INIT, f: F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    let len = items.len();
    let chunk_len = len.div_ceil(threads);
    let mut rest: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut first = items;
    // Split back-to-front so each drain is O(chunk); `first` keeps chunk 0.
    while first.len() > chunk_len {
        rest.push(first.split_off(first.len() - chunk_len));
    }
    let map_chunk = |chunk: Vec<T>, out: &mut Vec<R>| {
        let mut scratch = init();
        out.extend(chunk.into_iter().map(|t| f(&mut scratch, t)));
    };
    let map_chunk = &map_chunk;
    std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .into_iter()
            .rev()
            .map(|chunk| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(chunk.len());
                    map_chunk(chunk, &mut out);
                    out
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        map_chunk(first, &mut out);
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
        out
    })
}

/// The adversarial schedule: uneven chunk boundaries, permuted spawn order,
/// and per-worker yield pressure, all drawn from the chaos seed. Each chunk
/// carries its original index, and outputs are reassembled by that index, so
/// the result is identical to the static path no matter how workers race.
#[cfg(feature = "chaos")]
fn run_chunked_chaos<T, I, R, INIT, F>(items: Vec<T>, init: INIT, f: F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    let len = items.len();
    let plan = chaos::plan(len, threads);
    // Split front-to-back into the planned uneven chunks, tagged with their
    // original position.
    let mut rest = items;
    let mut chunks: Vec<Option<(usize, Vec<T>)>> = Vec::with_capacity(plan.sizes.len());
    for (idx, &size) in plan.sizes.iter().enumerate() {
        let tail = rest.split_off(size);
        chunks.push(Some((idx, rest)));
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "plan sizes must cover every item");
    let map_chunk = |(idx, chunk): (usize, Vec<T>)| {
        for _ in 0..plan.yields[idx] {
            std::thread::yield_now();
        }
        let mut scratch = init();
        (idx, chunk.into_iter().map(|t| f(&mut scratch, t)).collect::<Vec<R>>())
    };
    let map_chunk = &map_chunk;
    let mut take = |orig: usize| chunks[orig].take().expect("each chunk runs exactly once");
    // The last chunk in spawn order runs on the calling thread, as the
    // static schedule's first chunk does, but at a seeded position.
    let (&on_caller, spawned) = plan.spawn_order.split_last().expect("plans have >= 2 chunks");
    let mut slots: Vec<Option<Vec<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = spawned
            .iter()
            .map(|&orig| {
                let chunk = take(orig);
                s.spawn(move || map_chunk(chunk))
            })
            .collect();
        let mut slots: Vec<Option<Vec<R>>> = (0..plan.sizes.len()).map(|_| None).collect();
        let (idx, chunk_out) = map_chunk(take(on_caller));
        slots[idx] = Some(chunk_out);
        for h in handles {
            let (idx, chunk_out) = h.join().expect("rayon-shim chaos worker panicked");
            slots[idx] = Some(chunk_out);
        }
        slots
    });
    let mut out = Vec::with_capacity(len);
    for slot in &mut slots {
        out.extend(slot.take().expect("every chunk completed"));
    }
    out
}

/// An order-preserving parallel iterator over an already-materialized list.
pub struct ParIter<T> {
    items: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    fn new(items: Vec<T>) -> Self {
        ParIter { items, min_len: 1 }
    }

    /// As in rayon: the call forks only as many workers as leave each at
    /// least `min_len` items, so it stays on the calling thread unless
    /// there are `2 * min_len` items or more. Ignored under the `chaos`
    /// feature, which perturbs every input of two items or more.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    pub fn map<R, F>(self, f: F) -> MapIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MapIter { items: self.items, min_len: self.min_len, f }
    }

    /// Per-worker scratch state, as in rayon's `map_init`.
    pub fn map_init<I, R, INIT, F>(self, init: INIT, f: F) -> MapInitIter<T, INIT, F>
    where
        R: Send,
        INIT: Fn() -> I + Sync,
        F: Fn(&mut I, T) -> R + Sync,
    {
        MapInitIter { items: self.items, min_len: self.min_len, init, f }
    }

    /// Groups items into `Vec`s of `size` (the last may be shorter).
    pub fn chunks(self, size: usize) -> ParIter<Vec<T>> {
        assert!(size > 0, "chunk size must be positive");
        let mut chunks = Vec::with_capacity(self.items.len().div_ceil(size));
        let mut items = self.items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        ParIter::new(chunks)
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect(), min_len: self.min_len }
    }

    pub fn zip<U: Send>(self, other: impl IntoParallelIterator<Item = U>) -> ParIter<(T, U)> {
        let other = other.into_par_iter();
        ParIter { items: self.items.into_iter().zip(other.items).collect(), min_len: self.min_len }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_chunked(self.items, self.min_len, || (), |(), t| f(t));
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// Lazy `map` stage of [`ParIter`]; executes on `collect`/`sum`/`for_each`.
pub struct MapIter<T, F> {
    items: Vec<T>,
    min_len: usize,
    f: F,
}

impl<T, R, F> MapIter<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = self.f;
        run_chunked(self.items, self.min_len, || (), |(), t| f(t)).into_iter().collect()
    }

    /// Deterministic sum: parallel map, then a sequential fold in input
    /// order, so float accumulation order never depends on thread count.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        let f = self.f;
        run_chunked(self.items, self.min_len, || (), |(), t| f(t)).into_iter().sum()
    }

    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let f = self.f;
        run_chunked(self.items, self.min_len, || (), |(), t| g(f(t)));
    }
}

/// Lazy `map_init` stage of [`ParIter`].
pub struct MapInitIter<T, INIT, F> {
    items: Vec<T>,
    min_len: usize,
    init: INIT,
    f: F,
}

impl<T, I, R, INIT, F> MapInitIter<T, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_chunked(self.items, self.min_len, self.init, self.f).into_iter().collect()
    }
}

/// `into_par_iter()` — mirrors `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter::new(self)
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter::new(self.collect())
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter::new(self.collect())
    }
}

/// `par_iter()` — mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

/// `par_iter_mut()` — mirrors `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter::new(self.iter_mut().collect())
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter::new(self.iter_mut().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_all_items() {
        let chunks: Vec<Vec<usize>> = (0..10usize).into_par_iter().chunks(4).collect();
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    #[test]
    fn sum_is_deterministic() {
        let v: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
        let a: f64 = v.par_iter().map(|&x| x).sum();
        let b: f64 = v.iter().sum();
        assert_eq!(a, b);
    }

    #[test]
    fn for_each_mut_writes_every_slot() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i);
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn install_bounds_and_restores() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn map_init_runs_init_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |scratch, x| {
                    *scratch += 1;
                    x
                },
            )
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert!(inits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn zip_pairs_in_order() {
        let a = vec![1, 2, 3];
        let b = vec![4, 5, 6];
        let s: i32 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(s, 4 + 10 + 18);
    }

    fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
    }

    /// Runs `op` on a helper thread and fails the test if it has not
    /// finished within a generous deadline, so a hang reads as a failure.
    fn within_deadline<R: Send + 'static>(op: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || tx.send(op()));
        let out = rx.recv_timeout(std::time::Duration::from_secs(30)).expect("parallel call hung");
        helper.join().expect("helper thread panicked").expect("receiver is alive");
        out
    }

    #[test]
    fn caller_run_chunks_keep_order_and_map_init_results() {
        for threads in [2usize, 3, 7] {
            for len in [2usize, 3, 7, 64, 1001] {
                let (mapped, inited): (Vec<usize>, Vec<(usize, usize)>) =
                    with_threads(threads, || {
                        let mapped = (0..len).into_par_iter().map(|x| x * 7 + 1).collect();
                        // Each chunk numbers its items from 0: the pairs expose
                        // every chunk boundary.
                        let inited = (0..len)
                            .into_par_iter()
                            .map_init(
                                || 0usize,
                                |seen, x| {
                                    *seen += 1;
                                    (x, *seen - 1)
                                },
                            )
                            .collect();
                        (mapped, inited)
                    });
                assert_eq!(mapped, (0..len).map(|x| x * 7 + 1).collect::<Vec<_>>());
                assert_eq!(
                    inited.iter().map(|p| p.0).collect::<Vec<_>>(),
                    (0..len).collect::<Vec<_>>()
                );
                #[cfg(not(feature = "chaos"))]
                {
                    // Chunks are cut back to front, so the first one
                    // (the caller's) holds the remainder.
                    let chunk = len.div_ceil(threads.min(len));
                    let first = len - chunk * ((len - 1) / chunk);
                    let expect = |x: usize| if x < first { x } else { (x - first) % chunk };
                    assert!(
                        inited.iter().all(|&(x, i)| i == expect(x)),
                        "{threads} threads, {len} items"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panic_in_any_chunk_propagates_without_hanging() {
        for threads in [2usize, 7] {
            // Item 0 lies in the caller's chunk, item 99 in the last worker's.
            for bad in [0usize, 99] {
                let caught = within_deadline(move || {
                    std::panic::catch_unwind(|| {
                        with_threads(threads, || {
                            (0..100usize)
                                .into_par_iter()
                                .map(|x| if x == bad { panic!("item {x}") } else { x })
                                .collect::<Vec<_>>()
                        })
                    })
                });
                assert!(caught.is_err(), "panic on item {bad} at {threads} threads was lost");
            }
        }
    }

    #[test]
    fn install_restores_the_bound_after_a_panic() {
        let before = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(before + 3).build().unwrap();
        let caught = std::panic::catch_unwind(|| pool.install(|| panic!("request failed")));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    fn threads_seen(len: usize, min_len: usize) -> Vec<std::thread::ThreadId> {
        with_threads(2, || {
            (0..len)
                .into_par_iter()
                .with_min_len(min_len)
                .map(|_| std::thread::current().id())
                .collect()
        })
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn with_min_len_keeps_small_calls_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert!(threads_seen(19, 10).iter().all(|&id| id == me));
        let forked = threads_seen(20, 10);
        assert!(forked[..10].iter().all(|&id| id == me), "the caller runs the first chunk");
        assert!(forked[10..].iter().all(|&id| id != me), "a worker runs the second");
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_ignores_with_min_len() {
        let me = std::thread::current().id();
        assert!(threads_seen(19, 10).iter().any(|&id| id != me), "chaos must still fork");
    }
}

/// Chaos-mode invariants. These run alongside the ordinary tests under
/// `--features chaos`; the assertions hold for *any* seed, so concurrent
/// tests mutating the global seed cannot make them flaky.
#[cfg(all(test, feature = "chaos"))]
mod chaos_tests {
    use super::*;

    #[test]
    fn chaos_schedules_preserve_order_across_seeds() {
        let expected: Vec<usize> = (0..997).map(|x| x * 3).collect();
        for seed in 0..8 {
            chaos::set_seed(seed);
            let out: Vec<usize> = (0..997usize).into_par_iter().map(|x| x * 3).collect();
            assert_eq!(out, expected, "seed {seed}");
        }
    }

    #[test]
    fn chaos_sum_stays_bit_identical_to_serial() {
        let v: Vec<f64> = (0..5000).map(|i| (i as f64).sqrt()).collect();
        let serial: f64 = v.iter().sum();
        for seed in [0u64, 1, 5, 17, 0xDEAD_BEEF] {
            chaos::set_seed(seed);
            let par: f64 = v.par_iter().map(|&x| x).sum();
            assert_eq!(par.to_bits(), serial.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn chaos_plans_are_exhaustive_uneven_permutations() {
        chaos::set_seed(3);
        for len in [2usize, 3, 17, 1000] {
            for threads in [2usize, 4, 7] {
                let plan = chaos::plan(len, threads);
                assert_eq!(plan.sizes.iter().sum::<usize>(), len, "sizes cover every item");
                assert!(plan.sizes.iter().all(|&s| s >= 1), "no empty chunk");
                let k = plan.sizes.len();
                assert!((2..=threads.min(len).max(2)).contains(&k), "chunk count in range");
                let mut spawn = plan.spawn_order.clone();
                spawn.sort_unstable();
                assert_eq!(spawn, (0..k).collect::<Vec<_>>(), "spawn order is a permutation");
                assert_eq!(plan.yields.len(), k);
            }
        }
    }

    #[test]
    fn chaos_join_keeps_the_result_contract() {
        for seed in 0..8 {
            chaos::set_seed(seed);
            for _ in 0..4 {
                let (a, b) = join(|| 41 + 1, || "y".to_string());
                assert_eq!(a, 42);
                assert_eq!(b, "y");
            }
        }
    }

    #[test]
    fn chaos_for_each_mut_still_writes_every_slot() {
        for seed in 0..4 {
            chaos::set_seed(seed);
            let mut v = vec![0usize; 509];
            v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1), "seed {seed}");
        }
    }
}
