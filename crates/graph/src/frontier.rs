//! Deterministic parallel frontier expansion and prefix sums.
//!
//! Level-synchronous traversals (plain BFS levels, RCM's degree-sorted BFS,
//! CDFS) all share one step: given the current frontier, collect each
//! frontier vertex's not-yet-visited neighbors. The helpers here gather
//! those candidate lists in parallel while keeping the *concatenated* stream
//! exactly equal to what the serial FIFO loop would produce, so callers that
//! commit candidates in stream order (first occurrence wins) are
//! bit-identical to their serial counterparts at any thread count.
//!
//! The trick is that candidate gathering is a pure function of the frontier
//! and the visited set *at the start of the level*: duplicates (a vertex
//! reachable from two frontier vertices) are left in the stream and resolved
//! by the caller's in-order commit, exactly as the serial loop resolves them
//! by marking visited mid-scan. Removing the first occurrence's duplicates
//! later in the stream never reorders the survivors.

use crate::csr::Csr;
use rayon::prelude::*;

/// Fixed gather granularity: frontier vertices are grouped into blocks of
/// this size and each block is one unit of parallel work. A constant (rather
/// than `len / num_threads`) keeps the block decomposition — and therefore
/// every float/ordering decision downstream — independent of the worker
/// count, while still exposing enough units to occupy a pool.
const GATHER_BLOCK: usize = 256;

/// Blocks each worker must get before a level forks. One block is a few
/// microseconds of neighbor reads, a fork tens of microseconds, so narrow
/// levels are gathered on the calling thread.
const GATHER_MIN_BLOCKS: usize = 8;

/// Gathers, for every frontier vertex in order, its neighbors `w` with
/// `!is_visited(w)`, preserving adjacency order. Returns the stream as
/// per-block segments whose concatenation is the deterministic candidate
/// stream; iterate segments in order and commit first occurrences.
///
/// `is_visited` must answer according to the state at the start of the
/// level; it is called concurrently.
pub fn frontier_candidates<V>(graph: &Csr, frontier: &[u32], is_visited: V) -> Vec<Vec<u32>>
where
    V: Fn(u32) -> bool + Sync,
{
    gather_blocks(frontier, |v, out| {
        out.extend(graph.neighbors(v).iter().copied().filter(|&w| !is_visited(w)));
    })
}

/// Like [`frontier_candidates`], but each vertex's candidate list is sorted
/// by `key` (ascending) before entering the stream — the RCM gather, where
/// unvisited neighbors are visited in `(degree, id)` order.
///
/// Sorting before or after dropping already-visited entries yields the same
/// relative order, so this matches the serial "filter then sort" loop even
/// though duplicates are still resolved later by the caller's commit.
pub fn frontier_candidates_by_key<V, K>(
    graph: &Csr,
    frontier: &[u32],
    is_visited: V,
    key: K,
) -> Vec<Vec<u32>>
where
    V: Fn(u32) -> bool + Sync,
    K: Fn(u32) -> u64 + Sync,
{
    gather_blocks(frontier, |v, out| {
        let start = out.len();
        out.extend(graph.neighbors(v).iter().copied().filter(|&w| !is_visited(w)));
        out[start..].sort_unstable_by_key(|&w| key(w));
    })
}

/// Splits `frontier` into fixed-size blocks and runs `fill` for each vertex
/// of each block into the block's output buffer, blocks in parallel.
fn gather_blocks<F>(frontier: &[u32], fill: F) -> Vec<Vec<u32>>
where
    F: Fn(u32, &mut Vec<u32>) + Sync,
{
    if frontier.len().div_ceil(GATHER_BLOCK) < 2 * GATHER_MIN_BLOCKS {
        // Too few blocks to fork (the common case for narrow levels): one
        // segment, without materializing the blocks for the parallel call.
        let mut out = Vec::new();
        for &v in frontier {
            fill(v, &mut out);
        }
        return vec![out];
    }
    frontier
        .par_iter()
        .chunks(GATHER_BLOCK)
        .with_min_len(GATHER_MIN_BLOCKS)
        .map(|block| {
            let mut out = Vec::new();
            for &v in block {
                fill(v, &mut out);
            }
            out
        })
        .collect()
}

/// Exclusive prefix sum: `counts` of length `n` become offsets of length
/// `n + 1` with `offsets[0] == 0` and `offsets[n] == counts.iter().sum()`.
/// The standard step for turning per-row lengths into CSR offsets.
pub fn exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn prefix_sum_basics() {
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
        assert_eq!(exclusive_prefix_sum(&[3, 0, 2]), vec![0, 3, 3, 5]);
    }

    #[test]
    fn candidates_match_serial_filter() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let visited = [true, false, false, true, false, false];
        let stream: Vec<u32> = frontier_candidates(&g, &[0, 3], |w| visited[w as usize])
            .into_iter()
            .flatten()
            .collect();
        // 0's unvisited neighbors (1, 2) then 3's (1, 2, 4); duplicates
        // stay — the caller's in-order commit resolves them.
        assert_eq!(stream, vec![1, 2, 1, 2, 4]);
    }

    #[test]
    fn keyed_candidates_sorted_per_vertex() {
        let g = GraphBuilder::undirected(5)
            .edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
            .build()
            .unwrap();
        // Key by reversed id: per-vertex lists must honor the key, not
        // adjacency order.
        let stream: Vec<u32> =
            frontier_candidates_by_key(&g, &[0], |_| false, |w| u64::from(u32::MAX - w))
                .into_iter()
                .flatten()
                .collect();
        assert_eq!(stream, vec![4, 3, 2, 1]);
    }

    #[test]
    fn large_frontier_spans_blocks() {
        // A star from 0: frontier of all leaves, none visited; candidate
        // stream is each leaf's sole neighbor (the hub), once per leaf.
        let n = 2 * GATHER_MIN_BLOCKS * GATHER_BLOCK + 17;
        let g =
            GraphBuilder::undirected(n + 1).edges((1..=n as u32).map(|i| (0, i))).build().unwrap();
        let frontier: Vec<u32> = (1..=n as u32).collect();
        let blocks = frontier_candidates(&g, &frontier, |w| w != 0);
        assert!(blocks.len() > 2 * GATHER_MIN_BLOCKS, "expected many blocks, got {}", blocks.len());
        let stream: Vec<u32> = blocks.into_iter().flatten().collect();
        assert_eq!(stream, vec![0u32; n]);
    }
}
