//! Reverse-reachability (RR) set sampling — the hot loop of IMM.
//!
//! An RR set for root `r` is the random set of vertices that would activate
//! `r` under one random realization of the diffusion process; it is sampled
//! by a *probabilistic BFS on the transpose graph* (paper §VI-C: "tens or
//! hundreds of thousands of probabilistic BFS traversals").

use crate::config::{DiffusionModel, SampleKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::cast::usize_from_u32;
use reorderlab_graph::{CompressError, CompressedCsr, Csr, GapNeighbors};

/// The reverse adjacency a sampler traverses: a flat CSR or the
/// delta/varint-compressed form. Both iterate any row's in-neighbors in
/// the identical (sorted) order, so the RNG coin stream — and therefore
/// every sampled set — is independent of the representation.
#[derive(Debug, Clone)]
enum Adjacency {
    /// Flat rows, read in place.
    Flat(Csr),
    /// Compressed rows, streamed zero-copy from the gap bytes.
    Compressed(CompressedCsr),
}

impl Adjacency {
    fn num_vertices(&self) -> usize {
        match self {
            Adjacency::Flat(g) => g.num_vertices(),
            Adjacency::Compressed(cz) => cz.num_vertices(),
        }
    }

    fn degree(&self, v: u32) -> usize {
        match self {
            Adjacency::Flat(g) => g.degree(v),
            Adjacency::Compressed(cz) => cz.degree(v),
        }
    }
}

/// A source of in-neighbor rows. The traversal bodies are generic over it,
/// so the flat-or-compressed choice is made once per sample and every edge
/// runs a monomorphic loop: slices for flat rows, the fused gap decoder for
/// compressed ones.
trait InRows {
    /// One row's in-neighbors, ascending; its length is the in-degree.
    type Row<'a>: ExactSizeIterator<Item = u32>
    where
        Self: 'a;

    fn row(&self, v: u32) -> Self::Row<'_>;
}

impl InRows for Csr {
    type Row<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    #[inline]
    fn row(&self, v: u32) -> Self::Row<'_> {
        self.neighbors(v).iter().copied()
    }
}

impl InRows for CompressedCsr {
    type Row<'a> = GapNeighbors<'a>;

    #[inline]
    fn row(&self, v: u32) -> Self::Row<'_> {
        self.neighbors(v)
    }
}

/// A sampler bound to one graph, holding the transpose used for reverse
/// traversals.
#[derive(Debug, Clone)]
pub struct RrSampler {
    /// Reverse adjacency: the in-neighbors of every vertex (for undirected
    /// graphs this equals the forward adjacency), flat or compressed.
    transpose: Adjacency,
    model: DiffusionModel,
    kernel: SampleKernel,
    /// `hub_slot[v]` is `v`'s index into the compact hub stamp array, or
    /// `u32::MAX` for cold vertices. Empty under [`SampleKernel::Classic`].
    hub_slot: Vec<u32>,
    /// Number of hub slots (the compact array's length).
    num_hubs: usize,
}

/// Counters from sampling one RR set, aggregated by the engine into the
/// throughput figures of the paper's Figure 11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrTrace {
    /// In-edges examined during the reverse BFS.
    pub edges_examined: u64,
    /// Vertices that entered the RR set.
    pub vertices_visited: u64,
}

/// Reusable per-thread scratch for RR sampling.
///
/// The naive traversal allocates an `n`-bit visited array and a fresh queue
/// for every RR set; IMM draws tens of thousands of sets, so those
/// allocations (and the O(n) clears) dominate on small sets. The scratch
/// replaces them with an epoch-stamped visited array — resetting is a single
/// counter increment — and one queue buffer that doubles as the output set.
/// Stamps are 4 bytes; when the epoch counter would wrap, every stamp is
/// cleared and counting restarts at 1, so a stale stamp never matches.
///
/// Reusing a scratch never changes the sampled sets: visitation is keyed on
/// `(seed, index)`-derived RNG streams only, so `sample_with` returns the
/// same set as [`RrSampler::sample`] for the same arguments.
#[derive(Debug, Clone)]
pub struct SampleScratch {
    /// `stamp[v] == epoch` marks `v` visited in the current sample.
    stamp: Vec<u32>,
    /// Compact visited stamps for hub vertices (indexed by hub slot); only
    /// touched by the [`SampleKernel::HubSplit`] path.
    hub_stamp: Vec<u32>,
    /// The current sample's stamp. A fresh slot holds 0, which the epoch
    /// leaves on its first sample and never returns to.
    epoch: u32,
    /// BFS queue and output set (root first).
    set: Vec<u32>,
}

impl SampleScratch {
    /// A scratch for graphs of up to `n` vertices.
    pub fn new(n: usize) -> Self {
        SampleScratch { stamp: vec![0; n], hub_stamp: Vec::new(), epoch: 0, set: Vec::new() }
    }

    /// Moves the epoch counter, so tests can drive samples across the wrap.
    #[cfg(test)]
    fn at_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Starts a new sample: sizes both stamp arrays, advances the epoch
    /// (constant-time reset of the visited set; clearing every stamp when
    /// the counter wraps) and empties the queue.
    fn begin(&mut self, n: usize, num_hubs: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.hub_stamp.len() < num_hubs {
            self.hub_stamp.resize(num_hubs, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                self.hub_stamp.fill(0);
                1
            }
        };
        self.set.clear();
    }
}

/// The visited set of the current sample, in one of the two layouts.
trait Visited {
    fn is_visited(&self, v: u32) -> bool;
    fn mark(&mut self, v: u32);
}

/// Classic layout: one stamp per vertex.
struct Stamps<'a> {
    stamp: &'a mut [u32],
    epoch: u32,
}

impl Visited for Stamps<'_> {
    #[inline]
    fn is_visited(&self, v: u32) -> bool {
        self.stamp[usize_from_u32(v)] == self.epoch
    }

    #[inline]
    fn mark(&mut self, v: u32) {
        self.stamp[usize_from_u32(v)] = self.epoch;
    }
}

/// Hub/cold split layout: hubs read and write the compact array, cold
/// vertices the full one. Logically identical to [`Stamps`].
struct SplitStamps<'a> {
    cold: Stamps<'a>,
    hub_stamp: &'a mut [u32],
    hub_slot: &'a [u32],
}

impl Visited for SplitStamps<'_> {
    #[inline]
    fn is_visited(&self, v: u32) -> bool {
        match self.hub_slot[usize_from_u32(v)] {
            u32::MAX => self.cold.is_visited(v),
            s => self.hub_stamp[usize_from_u32(s)] == self.cold.epoch,
        }
    }

    #[inline]
    fn mark(&mut self, v: u32) {
        match self.hub_slot[usize_from_u32(v)] {
            u32::MAX => self.cold.mark(v),
            s => self.hub_stamp[usize_from_u32(s)] = self.cold.epoch,
        }
    }
}

impl RrSampler {
    /// Prepares a sampler for `graph` under `model` with the default
    /// ([`SampleKernel::Classic`]) iteration path.
    pub fn new(graph: &Csr, model: DiffusionModel) -> Self {
        RrSampler::with_kernel(graph, model, SampleKernel::Classic)
    }

    /// Prepares a sampler using the given iteration kernel. Both kernels
    /// draw bit-identical sets and traces (pinned by differential tests).
    pub fn with_kernel(graph: &Csr, model: DiffusionModel, kernel: SampleKernel) -> Self {
        let transpose = Adjacency::Flat(graph.transposed());
        let (hub_slot, num_hubs) = match kernel {
            SampleKernel::Classic => (Vec::new(), 0),
            SampleKernel::HubSplit => hub_partition(&transpose),
        };
        RrSampler { transpose, model, kernel, hub_slot, num_hubs }
    }

    /// [`RrSampler::with_kernel`] over the compressed form: the reverse
    /// BFS streams in-neighbors straight from the varint gap bytes, never
    /// materializing flat rows. Draws sets and traces bit-identical to a
    /// flat sampler over the same graph — row order (and therefore the
    /// RNG coin stream) is representation-independent.
    ///
    /// # Errors
    ///
    /// [`CompressError::UnsortedRow`] — provably unreachable (the
    /// transpose of a decoded graph always has sorted rows), surfaced as
    /// a typed error rather than a panic to keep library code panic-free.
    pub fn with_kernel_compressed(
        cz: &CompressedCsr,
        model: DiffusionModel,
        kernel: SampleKernel,
    ) -> Result<Self, CompressError> {
        // Undirected adjacency is symmetric: reuse the caller's gap
        // streams. Directed graphs transpose once (flat, then recompress).
        let transpose = if cz.is_directed() {
            Adjacency::Compressed(CompressedCsr::from_csr(&cz.decode().transposed())?)
        } else {
            Adjacency::Compressed(cz.clone())
        };
        let (hub_slot, num_hubs) = match kernel {
            SampleKernel::Classic => (Vec::new(), 0),
            SampleKernel::HubSplit => hub_partition(&transpose),
        };
        Ok(RrSampler { transpose, model, kernel, hub_slot, num_hubs })
    }

    /// The number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.transpose.num_vertices()
    }

    /// The flat transpose graph the sampler traverses, when it holds one
    /// (exposed for the memory-replay workloads that model this routine's
    /// cache behaviour). `None` for compressed samplers.
    pub fn transpose(&self) -> Option<&Csr> {
        match &self.transpose {
            Adjacency::Flat(g) => Some(g),
            Adjacency::Compressed(_) => None,
        }
    }

    /// Samples the RR set with the given index into a freshly allocated
    /// vector. The RNG is derived from `(seed, index)`, so set `i` is
    /// identical no matter which thread draws it.
    ///
    /// Returns the RR set (root first) and the traversal counters. Hot
    /// loops should prefer [`RrSampler::sample_with`], which reuses buffers.
    pub fn sample(&self, seed: u64, index: u64) -> (Vec<u32>, RrTrace) {
        let mut scratch = SampleScratch::new(self.transpose.num_vertices());
        let (set, trace) = self.sample_with(seed, index, &mut scratch);
        (set.to_vec(), trace)
    }

    /// Allocation-free variant of [`RrSampler::sample`]: traverses into
    /// `scratch` and returns the RR set as a borrow of its buffer. Produces
    /// exactly the same set and trace as `sample(seed, index)` — the stable
    /// `(seed, index)` coin streams make the result independent of both the
    /// thread drawing it and any scratch reuse.
    pub fn sample_with<'s>(
        &self,
        seed: u64,
        index: u64,
        scratch: &'s mut SampleScratch,
    ) -> (&'s [u32], RrTrace) {
        let n = self.transpose.num_vertices();
        debug_assert!(n > 0, "cannot sample from an empty graph");
        let mut rng =
            StdRng::seed_from_u64(splitmix(seed ^ index.wrapping_mul(0x9e3779b97f4a7c15)));
        let root = rng.gen_range(0..n as u32);
        let trace = match &self.transpose {
            Adjacency::Flat(g) => self.traverse(g, root, scratch, &mut rng),
            Adjacency::Compressed(cz) => self.traverse(cz, root, scratch, &mut rng),
        };
        (&scratch.set, trace)
    }

    /// Draws one set rooted at `root` over a concrete row source, running
    /// the model's traversal.
    fn traverse<A: InRows>(
        &self,
        adj: &A,
        root: u32,
        scratch: &mut SampleScratch,
        rng: &mut StdRng,
    ) -> RrTrace {
        // Each in-edge (u -> v) is live with the probability `threshold`
        // gives for v's in-degree: p under IC, 1 / indeg(v) under WC.
        match self.model {
            DiffusionModel::IndependentCascade { probability } => {
                self.bfs_in_layout(adj, root, scratch, rng, |_| probability)
            }
            DiffusionModel::WeightedCascade => {
                self.bfs_in_layout(adj, root, scratch, rng, wc_threshold)
            }
            DiffusionModel::LinearThreshold => {
                // The LT reverse walk visits a handful of vertices per set,
                // so the hub/cold split buys nothing there; it always runs
                // classic.
                scratch.begin(self.transpose.num_vertices(), 0);
                let seen = Stamps { stamp: &mut scratch.stamp, epoch: scratch.epoch };
                reverse_walk(adj, root, seen, &mut scratch.set, rng)
            }
        }
    }

    /// Runs [`reverse_bfs`] over the kernel's visited layout.
    fn bfs_in_layout<A: InRows>(
        &self,
        adj: &A,
        root: u32,
        scratch: &mut SampleScratch,
        rng: &mut StdRng,
        threshold: impl Fn(usize) -> f64,
    ) -> RrTrace {
        let n = self.transpose.num_vertices();
        match self.kernel {
            SampleKernel::Classic => {
                scratch.begin(n, 0);
                let seen = Stamps { stamp: &mut scratch.stamp, epoch: scratch.epoch };
                reverse_bfs(adj, root, seen, &mut scratch.set, rng, threshold)
            }
            SampleKernel::HubSplit => {
                scratch.begin(n, self.num_hubs);
                let seen = SplitStamps {
                    cold: Stamps { stamp: &mut scratch.stamp, epoch: scratch.epoch },
                    hub_stamp: &mut scratch.hub_stamp,
                    hub_slot: &self.hub_slot,
                };
                reverse_bfs(adj, root, seen, &mut scratch.set, rng, threshold)
            }
        }
    }
}

/// The WC live-edge probability of an in-edge of a vertex with in-degree
/// `indeg`: `1 / indeg`, with sources treated as in-degree 1.
fn wc_threshold(indeg: usize) -> f64 {
    1.0 / indeg.max(1) as f64
}

/// IC-style probabilistic reverse BFS from `root`: each in-edge `(u -> v)`
/// of a visited `v` is live when its coin falls below `threshold(indeg(v))`.
/// The coin is drawn only for unvisited `u`, so the RNG stream — and the
/// set, push order included — is the same in every visited layout and row
/// source.
fn reverse_bfs<A: InRows, S: Visited>(
    adj: &A,
    root: u32,
    mut seen: S,
    set: &mut Vec<u32>,
    rng: &mut StdRng,
    threshold: impl Fn(usize) -> f64,
) -> RrTrace {
    seen.mark(root);
    set.push(root);
    let mut edges_examined = 0u64;
    let mut head = 0usize;
    while let Some(&v) = set.get(head) {
        head += 1;
        let row = adj.row(v);
        let indeg = row.len();
        edges_examined += indeg as u64;
        let p = threshold(indeg);
        row.for_each(|u| {
            if !seen.is_visited(u) && rng.gen::<f64>() < p {
                seen.mark(u);
                set.push(u);
            }
        });
    }
    RrTrace { edges_examined, vertices_visited: set.len() as u64 }
}

/// LT-style reverse random walk: from the root, repeatedly step to one
/// uniformly chosen in-neighbor until revisiting or hitting a source.
fn reverse_walk<A: InRows>(
    adj: &A,
    root: u32,
    mut seen: Stamps<'_>,
    set: &mut Vec<u32>,
    rng: &mut StdRng,
) -> RrTrace {
    seen.mark(root);
    set.push(root);
    let mut edges_examined = 0u64;
    let mut current = root;
    loop {
        let mut row = adj.row(current);
        let deg = row.len();
        if deg == 0 {
            break;
        }
        edges_examined += 1;
        // The index is always in range, so the `None` arm is unreachable
        // and breaking is the graceful (panic-free) answer if it ever
        // weren't.
        let Some(next) = row.nth(rng.gen_range(0..deg)) else {
            break;
        };
        if seen.is_visited(next) {
            break;
        }
        seen.mark(next);
        set.push(next);
        current = next;
    }
    RrTrace { edges_examined, vertices_visited: set.len() as u64 }
}

/// Partitions vertices into hubs and cold for [`SampleKernel::HubSplit`]:
/// the top `n/64` in-degree vertices (at least 1, at most 4096 — a few pages
/// of stamps) get compact slots, deterministically tie-broken by id. Returns
/// `(hub_slot, num_hubs)`.
fn hub_partition(transpose: &Adjacency) -> (Vec<u32>, usize) {
    let n = transpose.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let k = (n / 64).clamp(1, 4096).min(n);
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(transpose.degree(v)), v));
    let mut hub_slot = vec![u32::MAX; n];
    for (slot, &v) in by_degree[..k].iter().enumerate() {
        hub_slot[v as usize] = slot as u32;
    }
    (hub_slot, k)
}

/// SplitMix64 finalizer, decorrelating per-index RNG streams.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{complete, path, star};
    use reorderlab_graph::GraphBuilder;

    fn ic(p: f64) -> DiffusionModel {
        DiffusionModel::IndependentCascade { probability: p }
    }

    #[test]
    fn probability_one_reaches_component() {
        let g = path(10);
        let s = RrSampler::new(&g, ic(1.0));
        let (set, trace) = s.sample(1, 0);
        assert_eq!(set.len(), 10, "p = 1 on a connected graph reaches everything");
        assert_eq!(trace.vertices_visited, 10);
    }

    #[test]
    fn probability_epsilon_reaches_only_root() {
        let g = complete(20);
        let s = RrSampler::new(&g, ic(1e-12));
        for i in 0..10 {
            let (set, _) = s.sample(3, i);
            assert_eq!(set.len(), 1, "p ≈ 0 must keep only the root");
        }
    }

    #[test]
    fn rr_sets_deterministic_per_index() {
        let g = star(50);
        let s = RrSampler::new(&g, ic(0.5));
        assert_eq!(s.sample(7, 3), s.sample(7, 3));
        // Different indices should (overwhelmingly) differ.
        let distinct = (0..20).map(|i| s.sample(7, i).0).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn directed_graph_uses_transpose() {
        // Arc 0 -> 1 only: an RR set rooted at 1 can contain 0, but an RR
        // set rooted at 0 can never contain 1.
        let g = GraphBuilder::directed(2).edge(0, 1).build().unwrap();
        let s = RrSampler::new(&g, ic(1.0));
        for i in 0..20 {
            let (set, _) = s.sample(11, i);
            if set[0] == 0 {
                assert_eq!(set, vec![0]);
            } else {
                assert_eq!(set, vec![1, 0]);
            }
        }
    }

    #[test]
    fn weighted_cascade_bounded_expansion() {
        let g = complete(30);
        let s = RrSampler::new(&g, DiffusionModel::WeightedCascade);
        // Expected activations per scanned vertex is 1; sets stay small on
        // average. Just verify validity and non-explosion over many draws.
        let mut total = 0usize;
        for i in 0..50 {
            let (set, _) = s.sample(5, i);
            assert!(!set.is_empty());
            total += set.len();
        }
        assert!(total < 50 * 30);
    }

    #[test]
    fn linear_threshold_is_a_path_sample() {
        let g = complete(10);
        let s = RrSampler::new(&g, DiffusionModel::LinearThreshold);
        for i in 0..20 {
            let (set, trace) = s.sample(2, i);
            // A reverse walk visits each vertex at most once and examines
            // one in-edge per step.
            assert_eq!(trace.vertices_visited as usize, set.len());
            let distinct: std::collections::HashSet<_> = set.iter().collect();
            assert_eq!(distinct.len(), set.len());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch reused across many samples (and across models) must
        // reproduce exactly what per-sample allocation produces.
        let g = reorderlab_datasets::erdos_renyi_gnm(120, 360, 13);
        for model in [ic(0.2), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold] {
            let s = RrSampler::new(&g, model);
            let mut scratch = SampleScratch::new(g.num_vertices());
            for i in 0..200 {
                let fresh = s.sample(21, i);
                let (set, trace) = s.sample_with(21, i, &mut scratch);
                assert_eq!((set.to_vec(), trace), fresh, "index {i} under {model:?}");
            }
        }
    }

    #[test]
    fn scratch_grows_to_fit_larger_graphs() {
        let small = path(4);
        let big = path(64);
        let mut scratch = SampleScratch::new(small.num_vertices());
        let s = RrSampler::new(&big, ic(1.0));
        let (set, _) = s.sample_with(1, 0, &mut scratch);
        assert_eq!(set.len(), 64);
        // One scratch reused across samplers of different sizes, kernels
        // and models still draws exactly what a fresh allocation draws.
        let graphs = [path(4), reorderlab_datasets::erdos_renyi_gnm(300, 1500, 17), star(80)];
        for g in &graphs {
            for model in [ic(0.3), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold]
            {
                for kernel in SampleKernel::ALL {
                    let s = RrSampler::with_kernel(g, model, kernel);
                    for i in 0..20 {
                        let (set, trace) = s.sample_with(4, i, &mut scratch);
                        assert_eq!((set.to_vec(), trace), s.sample(4, i), "{model:?}/{kernel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        // Draw with low epochs first, so stale stamps 1..=8 sit in both
        // arrays; then jump to just below the wrap. Without the clear, the
        // restarted epochs would read those stale stamps as visited (and a
        // bare wrapping add would reach epoch 0, the fresh-slot value).
        let g = reorderlab_datasets::erdos_renyi_gnm(300, 1500, 17);
        for kernel in SampleKernel::ALL {
            let s = RrSampler::with_kernel(&g, ic(0.3), kernel);
            let mut scratch = SampleScratch::new(g.num_vertices());
            for i in 0..8 {
                s.sample_with(6, i, &mut scratch);
            }
            let mut scratch = scratch.at_epoch(u32::MAX - 2);
            for i in 0..8 {
                let (set, trace) = s.sample_with(6, i, &mut scratch);
                assert_eq!((set.to_vec(), trace), s.sample(6, i), "{kernel:?} index {i}");
            }
            assert_eq!(scratch.epoch, 6, "the wrap restarts counting at 1");
        }
    }

    #[test]
    fn hub_split_bit_identical_to_classic() {
        // The acceptance criterion for the sampler kernel: the hub/cold
        // split path draws exactly the sets (order included) and traces the
        // classic path draws, for every model and across scratch reuse.
        let graphs = [
            star(80),
            complete(25),
            path(120),
            reorderlab_datasets::erdos_renyi_gnm(300, 1500, 17),
        ];
        for g in &graphs {
            for model in [ic(0.3), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold]
            {
                let classic = RrSampler::with_kernel(g, model, SampleKernel::Classic);
                let split = RrSampler::with_kernel(g, model, SampleKernel::HubSplit);
                let mut sc = SampleScratch::new(g.num_vertices());
                let mut ss = SampleScratch::new(g.num_vertices());
                for i in 0..100 {
                    let (a, ta) = classic.sample_with(9, i, &mut sc);
                    let a = a.to_vec();
                    let (b, tb) = split.sample_with(9, i, &mut ss);
                    assert_eq!(a, b, "set mismatch at index {i} under {model:?}");
                    assert_eq!(ta, tb, "trace mismatch at index {i} under {model:?}");
                }
            }
        }
    }

    #[test]
    fn compressed_sampler_bit_identical_to_flat() {
        // The acceptance criterion for compressed-mode IMM: sampling over
        // the varint gap streams draws exactly the sets (order included)
        // and traces the flat transpose draws, for every model and kernel,
        // on undirected and directed graphs alike.
        let directed_ring = {
            let mut b = GraphBuilder::directed(23);
            for v in 0..23u32 {
                b = b.edge(v, (v + 1) % 23).edge(v, (v + 5) % 23);
            }
            b.build().unwrap()
        };
        let graphs = [
            star(80),
            path(120),
            reorderlab_datasets::erdos_renyi_gnm(300, 1500, 17),
            directed_ring,
        ];
        for g in &graphs {
            let cz = CompressedCsr::from_csr(g).unwrap();
            for model in [ic(0.3), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold]
            {
                for kernel in [SampleKernel::Classic, SampleKernel::HubSplit] {
                    let flat = RrSampler::with_kernel(g, model, kernel);
                    let packed = RrSampler::with_kernel_compressed(&cz, model, kernel).unwrap();
                    let mut sf = SampleScratch::new(g.num_vertices());
                    let mut sp = SampleScratch::new(g.num_vertices());
                    for i in 0..100 {
                        let (a, ta) = flat.sample_with(9, i, &mut sf);
                        let a = a.to_vec();
                        let (b, tb) = packed.sample_with(9, i, &mut sp);
                        assert_eq!(a, b, "set mismatch at {i} under {model:?}/{kernel:?}");
                        assert_eq!(ta, tb, "trace mismatch at {i} under {model:?}/{kernel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_accessor_distinguishes_representations() {
        let g = path(10);
        let flat = RrSampler::new(&g, ic(0.5));
        assert!(flat.transpose().is_some());
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let packed =
            RrSampler::with_kernel_compressed(&cz, ic(0.5), SampleKernel::Classic).unwrap();
        assert!(packed.transpose().is_none());
        assert_eq!(packed.num_vertices(), 10);
    }

    #[test]
    fn hub_partition_is_deterministic_and_prefers_high_degree() {
        let g = star(200);
        let s = RrSampler::with_kernel(&g, ic(0.5), SampleKernel::HubSplit);
        // The hub of a star must hold a compact slot.
        assert_ne!(s.hub_slot[0], u32::MAX);
        assert_eq!(s.num_hubs, 200 / 64);
        // Construction is deterministic.
        let s2 = RrSampler::with_kernel(&g, ic(0.5), SampleKernel::HubSplit);
        assert_eq!(s.hub_slot, s2.hub_slot);
        // Every slot in 0..num_hubs is assigned exactly once.
        let mut seen = vec![false; s.num_hubs];
        for &slot in &s.hub_slot {
            if slot != u32::MAX {
                assert!(!seen[slot as usize]);
                seen[slot as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hub_split_handles_tiny_graphs() {
        for n in [1usize, 2, 3] {
            let g = path(n);
            let s = RrSampler::with_kernel(&g, ic(1.0), SampleKernel::HubSplit);
            let c = RrSampler::with_kernel(&g, ic(1.0), SampleKernel::Classic);
            for i in 0..10 {
                assert_eq!(s.sample(3, i), c.sample(3, i));
            }
        }
    }

    #[test]
    fn trace_counts_edges() {
        let g = star(5);
        let s = RrSampler::new(&g, ic(1.0));
        // Root = hub: scans 4 in-edges then each leaf scans 1 (the hub).
        let (set, trace) = s.sample(0, 4);
        if set[0] == 0 {
            assert_eq!(trace.edges_examined, 4 + 4);
        }
        assert!(trace.edges_examined >= set.len() as u64 - 1);
    }
}
