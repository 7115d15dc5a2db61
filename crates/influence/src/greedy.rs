//! Greedy maximum coverage over RR sets — IMM's seed-selection step
//! ("NodeSelection" in Tang et al. \[36\]).
//!
//! Selecting the `k` vertices covering the most RR sets yields the
//! `(1 − 1/e)`-approximate most influential seed set for the sampled
//! realizations.

use reorderlab_graph::cast::{try_vertex_id, usize_from_u32};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The outcome of greedy coverage: chosen seeds and how many RR sets they
/// jointly cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Selected seed vertices, in pick order.
    pub seeds: Vec<u32>,
    /// Number of RR sets covered by the seed set.
    pub covered: usize,
}

/// Greedily selects up to `k` vertices maximizing RR-set coverage.
///
/// Ties are broken toward the smaller vertex id for determinism. Vertices
/// covering zero additional sets are never selected (the seed list may be
/// shorter than `k` when coverage saturates).
///
/// # Panics
///
/// Panics if any RR set mentions a vertex `>= n`.
pub fn greedy_max_coverage(rr_sets: &[Vec<u32>], n: usize, k: usize) -> Coverage {
    // Inverted index: which sets contain each vertex.
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, set) in rr_sets.iter().enumerate() {
        for &v in set {
            containing[v as usize].push(i as u32);
        }
    }
    let mut gain: Vec<usize> = containing.iter().map(Vec::len).collect();
    let mut set_covered = vec![false; rr_sets.len()];
    let mut seeds = Vec::with_capacity(k);
    let mut covered = 0usize;

    for _ in 0..k {
        let best = (0..n).max_by_key(|&v| (gain[v], std::cmp::Reverse(v)));
        let v = match best {
            Some(v) if gain[v] > 0 => v,
            _ => break, // saturated
        };
        seeds.push(v as u32);
        // Cover v's sets and decrement the gains of their other members.
        let sets = std::mem::take(&mut containing[v]);
        for &s in &sets {
            if set_covered[s as usize] {
                continue;
            }
            set_covered[s as usize] = true;
            covered += 1;
            for &u in &rr_sets[s as usize] {
                gain[u as usize] = gain[u as usize].saturating_sub(1);
            }
        }
        gain[v] = 0;
    }
    Coverage { seeds, covered }
}

/// CELF (lazy greedy) maximum coverage: identical output to
/// [`greedy_max_coverage`] — same seeds, same order, same tie-breaks — but
/// exploits submodularity to skip most gain recomputations. This is the
/// optimization production IMM implementations (Ripples included) apply to
/// the NodeSelection step.
///
/// Builds the inverted index of `rr_sets` and runs the same CELF body IMM
/// runs over the index it grows across its martingale rounds.
///
/// # Panics
///
/// Panics if any RR set mentions a vertex `>= n`.
pub fn celf_max_coverage(rr_sets: &[Vec<u32>], n: usize, k: usize) -> Coverage {
    let mut batch = SetBatch::default();
    for set in rr_sets {
        batch.push(set);
    }
    let mut index = RrIndex::new(n);
    index.append(&[batch]);
    index.celf(k)
}

/// A run of consecutive RR sets stored back to back: set `j` of the batch
/// is `flat[ends[j - 1]..ends[j]]` (from 0 for the first).
#[derive(Debug, Default)]
pub(crate) struct SetBatch {
    flat: Vec<u32>,
    ends: Vec<usize>,
}

impl SetBatch {
    /// Appends `set` as the batch's next set.
    pub(crate) fn push(&mut self, set: &[u32]) {
        self.flat.extend_from_slice(set);
        self.ends.push(self.flat.len());
    }

    /// The sets in order.
    fn sets(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| self.flat.get(a..b).unwrap_or(&[]))
    }
}

/// RR sets stored only as an inverted index: for every vertex, the ids of
/// the sets holding it. Each [`RrIndex::append`] adds one block, the
/// appended sets transposed by a counting sort, so a vertex's ids are the
/// concatenation of its lists in every block — ascending, exactly the
/// list a rebuild from all sets would produce.
#[derive(Debug)]
pub(crate) struct RrIndex {
    n: usize,
    blocks: Vec<IndexBlock>,
    /// Sets appended so far; the next set's id.
    sets: u32,
}

/// One append's sets by vertex: `ids[offsets[v]..offsets[v + 1]]` are the
/// ids of the sets holding `v`.
#[derive(Debug)]
struct IndexBlock {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl IndexBlock {
    fn list(&self, v: usize) -> &[u32] {
        match (self.offsets.get(v), self.offsets.get(v + 1)) {
            (Some(&a), Some(&b)) => self.ids.get(a..b).unwrap_or(&[]),
            _ => &[],
        }
    }
}

impl RrIndex {
    /// An empty index over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        RrIndex { n, blocks: Vec::new(), sets: 0 }
    }

    /// Number of sets appended so far.
    pub(crate) fn len(&self) -> usize {
        usize_from_u32(self.sets)
    }

    /// Appends every set of `batches`, in order, as the next set ids.
    ///
    /// # Panics
    ///
    /// Panics if a set mentions a vertex `>= n`.
    pub(crate) fn append(&mut self, batches: &[SetBatch]) {
        let mut offsets = vec![0usize; self.n + 1];
        for &v in batches.iter().flat_map(|b| &b.flat) {
            offsets[usize_from_u32(v) + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![0u32; offsets[self.n]];
        for set in batches.iter().flat_map(SetBatch::sets) {
            for &v in set {
                let c = &mut cursor[usize_from_u32(v)];
                ids[*c] = self.sets;
                *c += 1;
            }
            self.sets += 1;
        }
        self.blocks.push(IndexBlock { offsets, ids });
    }

    /// The ids of the sets holding `v`, one slice per block.
    fn lists(&self, v: usize) -> impl Iterator<Item = &[u32]> {
        self.blocks.iter().map(move |b| b.list(v))
    }

    /// CELF over every set appended so far.
    pub(crate) fn celf(&self, k: usize) -> Coverage {
        let mut set_covered = vec![false; self.len()];
        // Heap of (gain, lower-id-first, vertex, freshness round).
        let mut heap: BinaryHeap<(usize, Reverse<u32>, usize)> = (0..self.n)
            .filter_map(|i| {
                let gain: usize = self.lists(i).map(<[u32]>::len).sum();
                let v = try_vertex_id(i)?;
                (gain > 0).then_some((gain, Reverse(v), 0usize))
            })
            .collect();
        let mut seeds = Vec::with_capacity(k);
        let mut covered = 0usize;
        let mut round = 0usize;

        while seeds.len() < k {
            let Some((gain, Reverse(v), fresh)) = heap.pop() else { break };
            if gain == 0 {
                break; // saturated: every remaining gain is ≤ this one
            }
            let sets = self.lists(usize_from_u32(v)).flatten();
            if fresh < round {
                // Stale: recompute the marginal gain lazily and reinsert.
                let current = sets.filter(|&&s| !set_covered[usize_from_u32(s)]).count();
                heap.push((current, Reverse(v), round));
                continue;
            }
            // Fresh maximum: select it.
            seeds.push(v);
            for &s in sets {
                let slot = &mut set_covered[usize_from_u32(s)];
                if !*slot {
                    *slot = true;
                    covered += 1;
                }
            }
            round += 1;
        }
        Coverage { seeds, covered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_coverage_first() {
        let sets = vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4]];
        let c = greedy_max_coverage(&sets, 5, 2);
        assert_eq!(c.seeds, vec![0, 4]);
        assert_eq!(c.covered, 4);
    }

    #[test]
    fn marginal_gain_updates_after_pick() {
        // Vertex 1 looks good (2 sets) but both overlap vertex 0's sets.
        let sets = vec![vec![0, 1], vec![0, 1], vec![0], vec![2]];
        let c = greedy_max_coverage(&sets, 3, 2);
        assert_eq!(c.seeds, vec![0, 2], "after 0, vertex 1 has zero marginal gain");
        assert_eq!(c.covered, 4);
    }

    #[test]
    fn stops_when_saturated() {
        let sets = vec![vec![0], vec![0]];
        let c = greedy_max_coverage(&sets, 4, 3);
        assert_eq!(c.seeds, vec![0]);
        assert_eq!(c.covered, 2);
    }

    #[test]
    fn ties_break_to_lower_id() {
        let sets = vec![vec![2, 5], vec![2, 5]];
        let c = greedy_max_coverage(&sets, 6, 1);
        assert_eq!(c.seeds, vec![2]);
    }

    #[test]
    fn empty_inputs() {
        let c = greedy_max_coverage(&[], 5, 3);
        assert!(c.seeds.is_empty());
        assert_eq!(c.covered, 0);
        let c2 = greedy_max_coverage(&[vec![1]], 2, 0);
        assert!(c2.seeds.is_empty());
    }

    #[test]
    fn covers_everything_with_enough_seeds() {
        let sets = vec![vec![0], vec![1], vec![2], vec![3]];
        let c = greedy_max_coverage(&sets, 4, 4);
        assert_eq!(c.covered, 4);
        assert_eq!(c.seeds.len(), 4);
    }

    #[test]
    fn celf_matches_greedy_on_fixtures() {
        let fixtures: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4]],
            vec![vec![0, 1], vec![0, 1], vec![0], vec![2]],
            vec![vec![2, 5], vec![2, 5]],
            vec![vec![0], vec![1], vec![2], vec![3]],
            vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![4, 5], vec![5]],
        ];
        for sets in fixtures {
            for k in 1..=4 {
                let a = greedy_max_coverage(&sets, 8, k);
                let b = celf_max_coverage(&sets, 8, k);
                assert_eq!(a, b, "sets {sets:?}, k={k}");
            }
        }
    }

    #[test]
    fn index_grown_in_blocks_matches_one_build() {
        // IMM appends its sets in several blocks; CELF over that index must
        // equal the oracle over all sets at once, for every split point.
        let sets: Vec<Vec<u32>> =
            vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![4, 5], vec![5], vec![0, 5], vec![2]];
        for cut in 0..=sets.len() {
            let mut index = RrIndex::new(8);
            for part in [&sets[..cut], &sets[cut..]] {
                let mut batch = SetBatch::default();
                for set in part {
                    batch.push(set);
                }
                index.append(&[batch]);
            }
            assert_eq!(index.len(), sets.len());
            for k in 1..=4 {
                assert_eq!(index.celf(k), greedy_max_coverage(&sets, 8, k), "cut {cut}, k={k}");
            }
        }
    }

    #[test]
    fn celf_empty_inputs() {
        let c = celf_max_coverage(&[], 5, 3);
        assert!(c.seeds.is_empty());
        assert_eq!(c.covered, 0);
    }

    #[test]
    fn celf_stops_at_zero_gain() {
        let sets = vec![vec![0], vec![0]];
        let c = celf_max_coverage(&sets, 4, 3);
        assert_eq!(c.seeds, vec![0]);
        assert_eq!(c.covered, 2);
    }
}
